//go:build !race

// The steady-state allocation tests are skipped under the race detector:
// its instrumentation changes the allocation behavior testing.AllocsPerRun
// observes. The CI benchmark-smoke job runs them without -race.

package core

import (
	"context"
	"runtime"
	"testing"

	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// stepDriver builds a warmed simulator and returns a closure advancing one
// slot, mirroring the slot loop in run().
func stepDriver(t *testing.T, mutate func(*Config)) (s *sim, stepOnce func()) {
	t.Helper()
	sched, err := schedule.NewGrouped(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(16, 200*simtime.Gbps, 0.75, 4000)
	wcfg.Seed = 7
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Schedule:      sched,
		Slot:          phy.DefaultSlot(),
		Q:             4,
		NormalizeRate: 200 * simtime.Gbps,
		Seed:          42,
	}
	mutate(&cfg)
	s, err = newSim(context.Background(), cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	// Inject the whole workload up front so the system stays busy for the
	// duration of the measurement.
	for f := range flows {
		s.inject(int32(f))
	}
	slotDur := cfg.Slot.Duration()
	epochE := int64(s.epochE)
	var slot int64
	return s, func() {
		now := simtime.Time(slot * int64(slotDur))
		if s.pendingQ != nil && s.pendingOut > 0 {
			s.drainPending()
		}
		s.step(int(slot%epochE), now.Add(slotDur))
		slot++
	}
}

// TestRunSteadyStateZeroAlloc pins the zero-allocation contract of the hot
// path: once every fifo size class has seen its peak and the congestion
// controller's grant buffers have grown to their high-water mark, a slot
// performs no heap allocations in any operating mode.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		warm   int
	}{
		{"requestgrant", func(c *Config) {}, 4000},
		{"ideal", func(c *Config) { c.Mode = ModeIdeal }, 4000},
		{"direct", func(c *Config) { c.Mode = ModeDirect }, 4000},
		{"paced", func(c *Config) { c.InjectRate = 4; c.LocalCap = 64 }, 4000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, stepOnce := stepDriver(t, tc.mutate)
			for i := 0; i < tc.warm && s.out > 0; i++ {
				stepOnce()
			}
			if s.out == 0 {
				t.Fatal("workload drained during warm-up; enlarge it")
			}
			if avg := testing.AllocsPerRun(300, stepOnce); avg != 0 {
				t.Errorf("steady-state slot allocates %.2f objects/slot, want 0", avg)
			}
			if s.out == 0 {
				t.Fatal("workload drained during measurement; enlarge it")
			}
		})
	}
}

// TestArenaSteadyStateRecycling checks the arena contract directly: after
// a grow/drain cycle has seeded a size class, further cycles reuse the
// banked segment instead of allocating.
func TestArenaSteadyStateRecycling(t *testing.T) {
	var a arena[int64]
	var q fifo[int64]
	cycle := func() {
		for i := int64(0); i < 4*releaseCap; i++ {
			q.push(i, &a)
		}
		for !q.empty() {
			q.pop(&a)
		}
	}
	cycle() // seed every class up to 4*releaseCap
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Errorf("grow/drain cycle allocates %.2f objects, want 0", avg)
	}
}

// newSimBytesBefore is newSim's allocation (runtime.MemStats.TotalAlloc
// delta) in TestNewSimFootprint's configuration with slice-backed fifo
// headers and per-destination congestion request lists, the layout the
// pointer-free queue state replaced (Go 1.24, linux/amd64).
const newSimBytesBefore = 138_541_408

// TestNewSimFootprint pins the per-run state of a 1024-node
// request/grant simulator at no more than 60% of the bytes the previous
// queue layout allocated.
func TestNewSimFootprint(t *testing.T) {
	const n = 1024
	sched, err := schedule.NewGrouped(n, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(n, 400*simtime.Gbps, 0.9, 4000)
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Schedule:      sched,
		Slot:          phy.DefaultSlot(),
		Q:             4,
		NormalizeRate: 400 * simtime.Gbps,
		Seed:          1,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := newSim(context.Background(), cfg, flows)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("newSim at n=%d allocated %d bytes (%.1f MB)", n, got, float64(got)/1e6)
	if limit := uint64(newSimBytesBefore) * 6 / 10; got > limit {
		t.Errorf("newSim allocated %d bytes, want <= %d (60%% of %d)", got, limit, newSimBytesBefore)
	}
}
