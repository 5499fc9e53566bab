package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"sirius/internal/sched"
	"sirius/internal/schedule"
	"sirius/internal/workload"
)

// goldenPlanner builds a fresh planner instance for the golden fixture
// grid (16 nodes, 4 uplinks, 4-slot epochs, matching the static golden
// geometry). Fresh per call: a Planner must not be shared between runs
// that could interleave.
func goldenPlanner(family string) Planner {
	mustNil := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	switch family {
	case "static":
		g, err := schedule.NewGrouped(16, 4, 1)
		mustNil(err)
		return sched.NewStatic(g)
	case "rotor":
		r, err := sched.NewRotorRR(16, 4, 4, 1)
		mustNil(err)
		return r
	case "pulse":
		p, err := sched.NewPULSE(16, 4, 4, 1, 0)
		mustNil(err)
		return p
	case "negotiator":
		g, err := sched.NewNegotiaToR(16, 4, 4, 1, 0)
		mustNil(err)
		return g
	}
	panic("unknown planner family " + family)
}

// runSim runs one simulation end to end and returns both the public
// results and the internal sim, so tests can diff state the public
// surface does not expose (per-uplink counters, grant accounting).
func runSim(t *testing.T, cfg Config, flows []workload.Flow) (*sim, *Results) {
	t.Helper()
	s, err := newSim(context.Background(), cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// diffSims fails the test unless two runs left behind exactly the same
// state: public summary, per-flow FCT vector, and the internal telemetry
// counters (uplink tx/idle, grants, stalls, reconfiguration). The golden
// summaries alone would not catch a miscount in the counters.
func diffSims(t *testing.T, ref, got *sim, rr, rg *Results) {
	t.Helper()
	jr, err := json.Marshal(summarize(rr))
	if err != nil {
		t.Fatal(err)
	}
	jg, err := json.Marshal(summarize(rg))
	if err != nil {
		t.Fatal(err)
	}
	if string(jr) != string(jg) {
		t.Errorf("summary diverges\nref: %s\ngot: %s", jr, jg)
	}
	if len(rr.PerFlowFCT) != len(rg.PerFlowFCT) {
		t.Fatalf("per-flow FCT length: ref %d got %d", len(rr.PerFlowFCT), len(rg.PerFlowFCT))
	}
	for i := range rr.PerFlowFCT {
		if rr.PerFlowFCT[i] != rg.PerFlowFCT[i] {
			t.Fatalf("flow %d FCT: ref %v got %v", i, rr.PerFlowFCT[i], rg.PerFlowFCT[i])
		}
	}
	for u := range ref.upTx {
		if ref.upTx[u] != got.upTx[u] {
			t.Errorf("uplink %d tx: ref %d got %d", u, ref.upTx[u], got.upTx[u])
		}
		if ref.upIdle[u] != got.upIdle[u] {
			t.Errorf("uplink %d idle: ref %d got %d", u, ref.upIdle[u], got.upIdle[u])
		}
	}
	for _, c := range []struct {
		name     string
		ref, got int64
	}{
		{"delivered", ref.delivered, got.delivered},
		{"direct", ref.direct, got.direct},
		{"epoch", ref.epoch, got.epoch},
		{"grantsIssued", ref.grantsIssued, got.grantsIssued},
		{"grantsUnused", ref.grantsUnused, got.grantsUnused},
		{"localStalls", ref.localStalls, got.localStalls},
		{"reconfigSlots", ref.reconfigSlots, got.reconfigSlots},
	} {
		if c.ref != c.got {
			t.Errorf("%s: ref %d got %d", c.name, c.ref, c.got)
		}
	}
}

// TestPlannerConfigValidation pins the Schedule/Planner exclusivity
// contract.
func TestPlannerConfigValidation(t *testing.T) {
	cfg, flows := goldenCase(t, func(c *Config) {})
	cfg.Planner = goldenPlanner("static")
	if _, err := Run(cfg, flows); err == nil {
		t.Fatal("both Schedule and Planner accepted")
	}
	cfg.Schedule, cfg.Planner = nil, nil
	if _, err := Run(cfg, flows); err == nil {
		t.Fatal("neither Schedule nor Planner rejected")
	}
}

// TestStaticPlannerMatchesSchedule is the adapter equivalence proof: a
// run driven by Planner = sched.NewStatic(s) is byte-identical to the
// same run driven by Schedule = s, in every mode, with GOMAXPROCS left
// as it is (shards0) and set to 4 (shards4; see procs_test.go). The
// dynamic path is a strict generalization of the static one.
func TestStaticPlannerMatchesSchedule(t *testing.T) {
	for _, mode := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"requestgrant", func(c *Config) {}},
		{"ideal", func(c *Config) { c.Mode = ModeIdeal }},
		{"direct", func(c *Config) { c.Mode = ModeDirect }},
	} {
		for _, procs := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", mode.name, procs), func(t *testing.T) {
				cfg, flows := goldenCase(t, mode.mutate)
				ref, rs := runSimProcs(t, cfg, flows, procs)

				pcfg := cfg
				pcfg.Schedule = nil
				pcfg.Planner = goldenPlanner("static")
				dyn, rp := runSimProcs(t, pcfg, flows, procs)
				if rp.ReconfigLinkSlots != 0 {
					t.Fatalf("static planner charged %d reconfig link-slots", rp.ReconfigLinkSlots)
				}
				diffSims(t, ref, dyn, rs, rp)
			})
		}
	}
}

// TestPlannerFamiliesComplete runs each dynamic family end to end in its
// natural mode and sanity-checks the reconfiguration accounting.
func TestPlannerFamiliesComplete(t *testing.T) {
	for _, tc := range []struct {
		family      string
		mode        Mode
		wantRecfg   bool
		wantAllDone bool
	}{
		{"rotor", ModeIdeal, true, true},
		{"pulse", ModeDirect, true, true},
		{"negotiator", ModeDirect, true, true},
	} {
		t.Run(tc.family, func(t *testing.T) {
			cfg, flows := goldenCase(t, func(c *Config) {})
			cfg.Schedule = nil
			cfg.Planner = goldenPlanner(tc.family)
			cfg.Mode = tc.mode
			res, err := Run(cfg, flows)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantAllDone && res.Completed != res.Flows {
				t.Fatalf("completed %d/%d flows", res.Completed, res.Flows)
			}
			if tc.wantRecfg && res.ReconfigLinkSlots == 0 {
				t.Fatal("no reconfiguration overhead recorded")
			}
			budget := res.Slots * int64(cfg.Planner.Nodes()) * int64(cfg.Planner.Uplinks())
			if res.ReconfigLinkSlots < 0 || res.ReconfigLinkSlots > budget {
				t.Fatalf("reconfig link-slots %d outside [0, %d]", res.ReconfigLinkSlots, budget)
			}
		})
	}
}

// TestPlannerReplaysInProcess guards the Reset contract: reusing one
// planner instance across sequential runs must reproduce the first
// run's results exactly.
func TestPlannerReplaysInProcess(t *testing.T) {
	for _, family := range []string{"rotor", "pulse", "negotiator"} {
		t.Run(family, func(t *testing.T) {
			cfg, flows := goldenCase(t, func(c *Config) {})
			cfg.Schedule = nil
			cfg.Planner = goldenPlanner(family)
			if family == "rotor" {
				cfg.Mode = ModeIdeal
			} else {
				cfg.Mode = ModeDirect
			}
			r1, err := Run(cfg, flows)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(cfg, flows)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(summarize(r1))
			b, _ := json.Marshal(summarize(r2))
			if string(a) != string(b) {
				t.Fatalf("replay with reused planner diverged\nfirst:  %s\nsecond: %s", a, b)
			}
			if r1.ReconfigLinkSlots != r2.ReconfigLinkSlots {
				t.Fatalf("reconfig accounting diverged: %d vs %d", r1.ReconfigLinkSlots, r2.ReconfigLinkSlots)
			}
		})
	}
}
