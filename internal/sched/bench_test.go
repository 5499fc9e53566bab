package sched

import (
	"testing"

	"sirius/internal/rng"
)

// BenchmarkPlanHotspot times one Plan at n=1024 (48 uplinks, 32 slots,
// one reconfig slot) on sparse hotspot demand: ~390 live pairs, half of
// them into node 0. This is the demand shape of a hotspot simulation,
// where the cost of a plan should follow the sources with demand rather
// than n. BenchmarkSchedulerPlans at the repository root covers dense
// demand.
func BenchmarkPlanHotspot(b *testing.B) {
	const n, up, slots, recfg = 1024, 48, 32, 1
	r := rng.New(1)
	demand := make([]int32, n*n)
	for k := 0; k < 390; k++ {
		src, dst := 1+r.Intn(n-1), 0
		if k%2 == 1 {
			src, dst = r.Intn(n), r.Intn(n)
			if src == dst {
				continue
			}
		}
		demand[src*n+dst] += int32(1 + r.Intn(400))
	}
	for _, fam := range []string{"rotorrr", "pulse", "negotiator"} {
		b.Run(fam, func(b *testing.B) {
			var p Scheduler
			var err error
			switch fam {
			case "rotorrr":
				p, err = NewRotorRR(n, up, slots, recfg)
			case "pulse":
				p, err = NewPULSE(n, up, slots, recfg, 0)
			case "negotiator":
				p, err = NewNegotiaToR(n, up, slots, recfg, 0)
			}
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]int32, slots*n*up)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Plan(int64(i), demand, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/plan")
		})
	}
}
