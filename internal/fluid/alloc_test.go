//go:build !race

// The steady-state allocation test is skipped under the race detector:
// its instrumentation changes the allocation behavior testing.AllocsPerRun
// observes. The CI benchmark-smoke job runs it without -race.

package fluid

import (
	"testing"

	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// stepDriver builds a warmed engine and returns a closure advancing one
// event, mirroring the loop in RunContext.
func stepDriver(t *testing.T, cfg Config, nflows int, seed uint64) (e *engine, stepOnce func()) {
	t.Helper()
	wcfg := workload.DefaultConfig(cfg.Endpoints, cfg.EndpointRate, 0.85, nflows)
	wcfg.Seed = seed
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err = newEngine(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	return e, func() {
		if err := e.step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEventLoopZeroAlloc pins the zero-allocation contract of the fluid
// event loop: with the dense flow table, FCT samples and solver scratch
// all preallocated by newEngine, processing an event (arrival or
// completion, including the full max-min reallocation) performs no heap
// allocations. One winner tree selects bottlenecks at every fabric size;
// the scan_* and heap_* case names are kept from the two selection
// paths it replaced.
func TestEventLoopZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"scan_ideal", Config{Endpoints: 32, EndpointRate: 400 * simtime.Gbps,
			Oversub: 1, BaseRTT: simtime.Microsecond}},
		{"scan_osub3", Config{Endpoints: 32, EndpointRate: 400 * simtime.Gbps,
			EndpointsPerRack: 8, Oversub: 3, BaseRTT: simtime.Microsecond}},
		{"heap_ideal", Config{Endpoints: 128, EndpointRate: 400 * simtime.Gbps,
			Oversub: 1, BaseRTT: simtime.Microsecond}},
		{"tree_osub3", Config{Endpoints: 64, EndpointRate: 400 * simtime.Gbps,
			EndpointsPerRack: 8, Oversub: 3, BaseRTT: simtime.Microsecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, stepOnce := stepDriver(t, tc.cfg, 3000, 11)
			// Warm up into the steady state: plenty of arrivals consumed
			// and completions recorded, far from draining.
			for i := 0; i < 2000 && !e.done(); i++ {
				stepOnce()
			}
			if e.done() {
				t.Fatal("workload drained during warm-up; enlarge it")
			}
			if avg := testing.AllocsPerRun(300, stepOnce); avg != 0 {
				t.Errorf("steady-state event allocates %.2f objects, want 0", avg)
			}
			if e.done() {
				t.Fatal("workload drained during measurement; enlarge it")
			}
			// The live tree's root is the (share, lowest index) minimum
			// of the live share cache.
			got, _ := e.tree0.root()
			if want := scanMin(leafShares(e.tree0)); got != want {
				t.Errorf("tree root is constraint %d, scan picks %d", got, want)
			}
		})
	}
}
