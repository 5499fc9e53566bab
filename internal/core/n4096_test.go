package core

import (
	"os"
	"testing"

	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// TestGoldenN4096RG pins the full-scale output: the n=4096 request-grant
// benchmark configuration (grouped(4096, 64, 1), 8000 flows at load 0.9)
// against its summary fixture, the same projection TestGoldenDeterminism
// uses. One run takes several seconds of wall clock, so it only runs when
// SIRIUS_N4096 is set — the CI n4096-smoke job does; the regular suite
// relies on the n = 16 golden replays.
func TestGoldenN4096RG(t *testing.T) {
	if os.Getenv("SIRIUS_N4096") == "" {
		t.Skip("set SIRIUS_N4096=1 to run the full-scale golden replay")
	}
	sched, err := schedule.NewGrouped(4096, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(4096, 400*simtime.Gbps, 0.9, 8000)
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Schedule: sched, Slot: phy.DefaultSlot(), Q: 4,
		NormalizeRate: 400 * simtime.Gbps, Seed: 1, KeepPerFlow: true}
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "n4096_rg", res)
	t.Logf("n=4096: %d slots, %d flows completed", res.Slots, res.Completed)
}
