package core

import (
	"fmt"
	"runtime"
	"testing"

	"sirius/internal/phy"
	"sirius/internal/sched"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// The tests in this file pin the claim that a run's output does not
// depend on how many cores the process has. The core once had a sharded
// slot loop whose shard count was the core count it was given; these
// tests diffed it against the serial loop, and their subtests keep the
// shardsK names. The slot loop is now serial only, so each case diffs a
// reference run at GOMAXPROCS=1 against a run of the same configuration
// at GOMAXPROCS=K, field by field (diffSims). A result that leaked
// scheduler order, map iteration order or state shared between runs
// would show up here.

// runSimProcs is runSim with GOMAXPROCS set to procs for the duration of
// the run; procs 0 leaves the setting as it is. Callers must not run in
// parallel with other tests, since GOMAXPROCS is process-wide.
func runSimProcs(t *testing.T, cfg Config, flows []workload.Flow, procs int) (*sim, *Results) {
	t.Helper()
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	return runSim(t, cfg, flows)
}

// TestShardedMatchesSerial replays every golden determinism fixture at
// GOMAXPROCS 2 and 4: the summary must match the fixture byte for byte,
// and the internal counters the fixtures do not serialize must match a
// GOMAXPROCS=1 run.
func TestShardedMatchesSerial(t *testing.T) {
	for _, tc := range goldenCases() {
		for _, procs := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", tc.name, procs), func(t *testing.T) {
				cfg, flows := goldenCase(t, tc.mutate)
				ref, rr := runSimProcs(t, cfg, flows, 1)
				got, rg := runSimProcs(t, cfg, flows, procs)
				diffSims(t, ref, got, rr, rg)
				checkGolden(t, tc.name, rg)
			})
		}
	}
}

func mustGrouped(t *testing.T, n, ports int) schedule.Schedule {
	t.Helper()
	s, err := schedule.NewGrouped(n, ports, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRotor(t *testing.T, n, uplinks int) schedule.Schedule {
	t.Helper()
	s, err := schedule.NewRotor(n, uplinks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedDifferential sweeps configurations the goldens do not cover
// (failed intermediates, guardband pacing, both control-loop variants,
// reorder tracking, and rotor grids that connect the same node pair on
// several uplinks in one slot) at GOMAXPROCS 2, 3, 5 and 64, each diffed
// field by field against a GOMAXPROCS=1 run of the same seed.
func TestShardedDifferential(t *testing.T) {
	type variant struct {
		name   string
		mutate func(*Config)
		failed []int // flows touching these nodes are filtered out
	}
	variants := []variant{
		{"rg", func(c *Config) {}, nil},
		{"rg_instant", func(c *Config) { c.InstantControl = true }, nil},
		{"rg_nodirect", func(c *Config) { c.NoDirect = true }, nil},
		{"rg_failed", func(c *Config) { c.FailedNodes = []int{3, 7} }, []int{3, 7}},
		{"rg_paced", func(c *Config) { c.InjectRate = 2; c.LocalCap = 32 }, nil},
		{"ideal", func(c *Config) { c.Mode = ModeIdeal }, nil},
		{"ideal_failed", func(c *Config) { c.Mode = ModeIdeal; c.FailedNodes = []int{5} }, []int{5}},
		{"direct", func(c *Config) { c.Mode = ModeDirect }, nil},
		{"direct_reorder", func(c *Config) { c.Mode = ModeDirect; c.TrackReorder = true }, nil},
	}
	grids := []struct {
		name     string
		sched    schedule.Schedule
		n, flows int
	}{
		{"grouped16", mustGrouped(t, 16, 4), 16, 300},
		{"grouped48", mustGrouped(t, 48, 8), 48, 900},
		{"rotor16", mustRotor(t, 16, 6), 16, 300},
		{"rotor48", mustRotor(t, 48, 10), 48, 900},
	}
	for _, g := range grids {
		for _, v := range variants {
			for _, seed := range []uint64{1, 2} {
				wcfg := workload.DefaultConfig(g.n, 100*simtime.Gbps, 0.9, g.flows)
				wcfg.Seed = seed
				flows, err := workload.Generate(wcfg)
				if err != nil {
					t.Fatal(err)
				}
				if v.failed != nil {
					bad := make(map[int]bool, len(v.failed))
					for _, fn := range v.failed {
						bad[fn] = true
					}
					kept := flows[:0]
					for _, f := range flows {
						if bad[f.Src] || bad[f.Dst] {
							continue
						}
						f.ID = len(kept)
						kept = append(kept, f)
					}
					flows = kept
				}
				cfg := Config{
					Schedule:      g.sched,
					Slot:          phy.DefaultSlot(),
					Q:             4,
					NormalizeRate: 100 * simtime.Gbps,
					Seed:          seed * 31,
					KeepPerFlow:   true,
				}
				v.mutate(&cfg)
				ref, rr := runSimProcs(t, cfg, flows, 1)
				for _, procs := range []int{2, 3, 5, 64} {
					t.Run(fmt.Sprintf("%s/%s/seed%d/shards%d", g.name, v.name, seed, procs), func(t *testing.T) {
						got, rg := runSimProcs(t, cfg, flows, procs)
						diffSims(t, ref, got, rr, rg)
					})
				}
			}
		}
	}
}

// TestShardedDifferentialSched is the dynamic-planner counterpart of
// TestShardedDifferential: every scheduler family, two fabric sizes and
// two seeds, at GOMAXPROCS 2, 3, 4 and 64, each diffed field by field
// against a GOMAXPROCS=1 run. Both runs share one planner instance, so
// the run under test also relies on the planner's Reset.
func TestShardedDifferentialSched(t *testing.T) {
	mustPlanner := func(p Planner, err error) Planner {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	grids := []struct {
		name    string
		planner func(n, up, slots int) Planner
		mode    Mode
	}{
		{"static_grouped", func(n, up, slots int) Planner {
			g, err := schedule.NewGrouped(n, slots, 1)
			return mustPlanner(sched.NewStatic(g), err)
		}, ModeRequestGrant},
		{"rotorrr", func(n, up, slots int) Planner {
			return mustPlanner(sched.NewRotorRR(n, up, slots, 1))
		}, ModeIdeal},
		{"pulse", func(n, up, slots int) Planner {
			return mustPlanner(sched.NewPULSE(n, up, slots, 1, 0))
		}, ModeDirect},
		{"negotiator", func(n, up, slots int) Planner {
			return mustPlanner(sched.NewNegotiaToR(n, up, slots, 1, 0))
		}, ModeDirect},
	}
	sizes := []struct{ n, up, slots, flows int }{
		{16, 4, 4, 300},
		{48, 6, 8, 600},
	}
	for _, g := range grids {
		for _, sz := range sizes {
			for _, seed := range []uint64{1, 2} {
				wcfg := workload.DefaultConfig(sz.n, 100*simtime.Gbps, 0.8, sz.flows)
				wcfg.Seed = seed
				flows, err := workload.Generate(wcfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					Planner:       g.planner(sz.n, sz.up, sz.slots),
					Slot:          phy.DefaultSlot(),
					Q:             4,
					Mode:          g.mode,
					NormalizeRate: 100 * simtime.Gbps,
					Seed:          seed * 31,
					KeepPerFlow:   true,
				}
				ref, rr := runSimProcs(t, cfg, flows, 1)
				for _, procs := range []int{2, 3, 4, 64} {
					t.Run(fmt.Sprintf("%s/n%d/seed%d/shards%d", g.name, sz.n, seed, procs), func(t *testing.T) {
						got, rg := runSimProcs(t, cfg, flows, procs)
						diffSims(t, ref, got, rr, rg)
					})
				}
			}
		}
	}
}
