package sched

import (
	"testing"

	"sirius/internal/rng"
)

// FuzzPlanContentionFree drives PULSE and NegotiaToR over randomized
// demand matrices and epoch sequences, asserting the safety invariants
// that the core engine relies on: every plan is a contention-free
// matching (per (slot, uplink) plane, injective src→dst, in-range), and
// PULSE never serves a pair beyond its sampled demand. Every plan must
// also equal its reference planner's (plan_equiv_test.go). The two
// planners share one dst buffer, so each sees the other's table on
// entry, as Plan's contract allows.
func FuzzPlanContentionFree(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(2), uint8(4), uint8(1), uint8(0))
	f.Add(uint64(42), uint8(16), uint8(3), uint8(8), uint8(2), uint8(1))
	f.Add(uint64(7), uint8(5), uint8(1), uint8(3), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, upRaw, slotRaw, recfgRaw, probeRaw uint8) {
		n := 2 + int(nRaw)%31       // 2..32
		up := 1 + int(upRaw)%4      // 1..4
		slots := 1 + int(slotRaw)%8 // 1..8
		recfg := int(recfgRaw) % slots
		probes := int(probeRaw) % 5 // 0 (default 2×up) or 1..4
		p, err := NewPULSE(n, up, slots, recfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewNegotiaToR(n, up, slots, recfg, probes)
		if err != nil {
			t.Fatal(err)
		}
		refP := newRefPULSE(n, up, slots, recfg, probes)
		refG := newRefNegotiaToR(n, up, slots, recfg, probes)
		rn := rng.New(seed)
		demand := make([]int32, n*n)
		dst := make([]int32, slots*n*up)
		want := make([]int32, len(dst))
		matchRef := func(name string, epoch int64, rc int, ref planFunc) {
			t.Helper()
			if rcRef := ref(epoch, demand, want); rc != rcRef {
				t.Fatalf("%s epoch %d: reconfig %d, reference %d", name, epoch, rc, rcRef)
			}
			if i := firstDiff(dst, want); i >= 0 {
				t.Fatalf("%s epoch %d: dst[%d] = %d, reference %d", name, epoch, i, dst[i], want[i])
			}
		}
		for epoch := int64(0); epoch < 6; epoch++ {
			for i := range demand {
				demand[i] = 0
				if rn.Intn(4) == 0 {
					demand[i] = int32(rn.Intn(32))
				}
			}
			for i := 0; i < n; i++ {
				demand[i*n+i] = 0 // no self traffic
			}
			rc := p.Plan(epoch, demand, dst)
			if rc < 0 {
				t.Fatalf("PULSE: negative reconfig %d", rc)
			}
			matchRef("PULSE", epoch, rc, refP.Plan)
			if err := CheckMatching(n, up, slots, dst); err != nil {
				t.Fatalf("PULSE epoch %d (n=%d up=%d slots=%d recfg=%d): %v", epoch, n, up, slots, recfg, err)
			}
			for i, s := range servedPerPair(n, up, dst) {
				if s > demand[i] {
					t.Fatalf("PULSE epoch %d: pair (%d,%d) served %d > demand %d", epoch, i/n, i%n, s, demand[i])
				}
			}
			rc = g.Plan(epoch, demand, dst)
			if rc < 0 {
				t.Fatalf("NegotiaToR: negative reconfig %d", rc)
			}
			matchRef("NegotiaToR", epoch, rc, refG.Plan)
			if err := CheckMatching(n, up, slots, dst); err != nil {
				t.Fatalf("NegotiaToR epoch %d (n=%d up=%d slots=%d recfg=%d): %v", epoch, n, up, slots, recfg, err)
			}
		}
	})
}
