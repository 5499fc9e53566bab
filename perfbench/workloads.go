package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"sirius/internal/core"
	"sirius/internal/dc"
	"sirius/internal/fluid"
	"sirius/internal/metrics"
	"sirius/internal/phy"
	"sirius/internal/rng"
	"sirius/internal/sched"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/telemetry"
	"sirius/internal/wire"
	"sirius/internal/workload"
)

// suite is one workload's inputs, built from the seed: the engine calls
// one pass makes, in order, and how long generating the flows took.
type suite struct {
	calls    []call
	generate time.Duration
}

// call is one engine call. run returns the call's simulated statistics
// as canonical text (hashed into the digest) and the cells it delivered
// outside the core's telemetry, or the error that makes it a failed op.
type call struct {
	name string
	run  func(ctx context.Context, p *probe) (stats string, cells int64, err error)
}

// workloadDef names a workload and builds its suite from a seed.
type workloadDef struct {
	name  string
	setup func(seed uint64, tiny bool) (*suite, error)
}

var workloads = []workloadDef{
	{"fig9-small", fig9Small},
	{"sched-n1024", schedN1024},
	{"wire-n4", wireN4},
}

// fabric is a rack-level geometry: every rack is a node with
// racks/ports base uplinks at 50 Gb/s, provisioned 1.5x as in the
// paper's default fabric.
type fabric struct{ racks, ports int }

func (f fabric) nodeRate() simtime.Rate {
	return simtime.Rate(f.racks/f.ports) * 50 * simtime.Gbps
}

func (f fabric) uplinks() int {
	return int(math.Round(float64(f.racks/f.ports) * 1.5))
}

// schedule is the static Sirius schedule of the fabric.
func (f fabric) schedule() (schedule.Schedule, error) {
	groups := f.racks / f.ports
	if up := f.uplinks(); up%groups != 0 {
		return schedule.NewRotor(f.racks, up)
	}
	return schedule.NewGrouped(f.racks, f.ports, f.uplinks()/groups)
}

func (f fabric) coreConfig(mode core.Mode, seed uint64) core.Config {
	return core.Config{
		Slot:          phy.DefaultSlot(),
		Q:             4,
		Mode:          mode,
		NormalizeRate: f.nodeRate(),
		Seed:          seed,
	}
}

// fig9Small is the paper's Fig 9 grid at the small scale: per load, the
// core in request-grant and ideal mode on the static schedule, the fluid
// ESN at oversubscription 1 and 3, and the server-level deployment.
// Every load draws its own flow sample.
func fig9Small(seed uint64, tiny bool) (*suite, error) {
	f, flowsPerLoad, vol, loads := fabric{64, 8}, 4000, volumes{total: 150e6}, []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	if tiny {
		f, flowsPerLoad, vol, loads = fabric{16, 4}, 200, volumes{total: 5.5e6}, []float64{0.25, 1.0}
	}
	const serversPerRack = 24
	st, err := f.schedule()
	if err != nil {
		return nil, err
	}
	s := &suite{}
	for i, load := range loads {
		tag := fmt.Sprintf(" load=%g", load)
		g := time.Now()
		flows, err := pinnedFlows(flowConfig(f.racks, f.nodeRate(), load, flowsPerLoad, 0), vol, rng.PointSeed(seed, uint64(i)), 16)
		if err != nil {
			return nil, err
		}
		dcc := dc.DefaultConfig(f.racks)
		dcc.GratingPorts = f.ports
		dcc.ServersPerRack = serversPerRack
		dcc.Seed = rng.PointSeed(seed, uint64(200+i))
		srvFlows, err := pinnedFlows(flowConfig(dcc.Servers(), dcc.ServerRate, load, flowsPerLoad, 0), vol, rng.PointSeed(seed, uint64(300+i)), 16)
		if err != nil {
			return nil, err
		}
		s.generate += time.Since(g)

		rg := f.coreConfig(core.ModeRequestGrant, rng.PointSeed(seed, uint64(100+i)))
		rg.Schedule = st
		ideal := rg
		ideal.Mode = core.ModeIdeal
		esn := fluid.Config{Endpoints: f.racks, EndpointRate: f.nodeRate(), Oversub: 1, BaseRTT: simtime.Microsecond}
		osub := esn
		osub.Oversub = 3
		osub.EndpointsPerRack = f.ports
		s.calls = append(s.calls,
			coreCall("core.rg"+tag, "core.rg", rg, flows),
			coreCall("core.ideal"+tag, "core.ideal", ideal, flows),
			fluidCall("fluid.esn"+tag, "fluid.esn", esn, flows),
			fluidCall("fluid.osub"+tag, "fluid.osub", osub, flows),
			dcCall("dc"+tag, dcc, srvFlows))
	}
	return s, nil
}

// schedFamilies are the scheduler families of sched-n1024, in call order.
var schedFamilies = []string{"static", "rotorrr", "pulse", "negotiator"}

// schedN1024 runs every scheduler family on one hotspot flow sample at
// n = 1024, each under the core mode archcompare gives it.
func schedN1024(seed uint64, tiny bool) (*suite, error) {
	f, flows, vol := fabric{1024, 32}, 1000, volumes{total: 34e6, hot: 15e6}
	if tiny {
		f, flows, vol = fabric{64, 8}, 200, volumes{total: 5.5e6, hot: 2.5e6}
	}
	const reconfigSlots = 1
	g := time.Now()
	sample, err := pinnedFlows(flowConfig(f.racks, f.nodeRate(), 0.5, flows, 0.5), vol, rng.PointSeed(seed, 0), 256)
	if err != nil {
		return nil, err
	}
	s := &suite{generate: time.Since(g)}
	for i, fam := range schedFamilies {
		var p core.Planner
		mode := core.ModeDirect
		switch fam {
		case "static":
			st, err := f.schedule()
			if err != nil {
				return nil, err
			}
			p, mode = sched.NewStatic(st), core.ModeRequestGrant
		case "rotorrr":
			p, err = sched.NewRotorRR(f.racks, f.uplinks(), f.ports, reconfigSlots)
			mode = core.ModeIdeal
		case "pulse":
			p, err = sched.NewPULSE(f.racks, f.uplinks(), f.ports, reconfigSlots, 0)
		case "negotiator":
			p, err = sched.NewNegotiaToR(f.racks, f.uplinks(), f.ports, reconfigSlots, 0)
		}
		if err != nil {
			return nil, err
		}
		cfg := f.coreConfig(mode, rng.PointSeed(seed, uint64(100+i)))
		cfg.Planner = p
		s.calls = append(s.calls, coreCall("core."+fam, "core."+fam, cfg, sample))
	}
	return s, nil
}

// wireN4 is the §6 prototype: 4 nodes over loopback TCP on a clean
// fabric, one phase with the smallest cell and one with the full cell.
func wireN4(seed uint64, tiny bool) (*suite, error) {
	epochs := 10000
	if tiny {
		epochs = 50
	}
	s := &suite{}
	for _, payload := range []int{64, 562} {
		layer := fmt.Sprintf("wire.p%d", payload)
		c, err := wireCall(layer, wire.PrototypeConfig{
			Nodes:        4,
			Epochs:       epochs,
			PayloadBytes: payload,
			Seed:         rng.PointSeed(seed, uint64(payload)),
		})
		if err != nil {
			return nil, err
		}
		s.calls = append(s.calls, c)
	}
	return s, nil
}

// flowConfig is the §7 workload: Pareto(1.05) sizes with a 100 KB mean
// and Poisson arrivals, uniform pairs, or a hotspot when hot > 0.
func flowConfig(nodes int, rate simtime.Rate, load float64, flows int, hot float64) workload.Config {
	cfg := workload.DefaultConfig(nodes, rate, load, flows)
	if hot > 0 {
		cfg.Pattern = workload.Hotspot
		cfg.HotFraction = hot
	}
	return cfg
}

// volumes states a flow sample's size: its total bytes and, for a
// hotspot workload, the bytes destined to the hot node 0.
type volumes struct{ total, hot float64 }

// pinnedFlows draws candidates flow samples from the seed's substreams
// and returns the one whose volumes are nearest v (largest relative
// miss). The totals of Pareto(1.05) samples spread by about ±40%
// between seeds, so without the pin the seed would set the input size,
// and with it the work, of every run; with the pin the seed still picks
// the flows, their arrivals and their endpoints. Drawing a fixed number
// of candidates keeps the set-up work the same for every seed.
func pinnedFlows(cfg workload.Config, v volumes, seed uint64, candidates int) ([]workload.Flow, error) {
	var best []workload.Flow
	bestMiss := math.Inf(1)
	for i := 0; i < candidates; i++ {
		cfg.Seed = rng.PointSeed(seed, uint64(i))
		flows, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		var total, hot float64
		for _, f := range flows {
			total += float64(f.Bytes)
			if f.Dst == 0 {
				hot += float64(f.Bytes)
			}
		}
		miss := math.Abs(total-v.total) / v.total
		if v.hot > 0 {
			miss = math.Max(miss, math.Abs(hot-v.hot)/v.hot)
		}
		if miss < bestMiss {
			best, bestMiss = flows, miss
		}
	}
	return best, nil
}

// sampleStats renders the FCT percentiles of a flow-completion sample.
func sampleStats(s *metrics.Sample) string {
	return fmt.Sprintf("n=%d p50=%v p99=%v p999=%v", s.Count(), s.Percentile(50), s.Percentile(99), s.Percentile(99.9))
}

func coreCall(name, layer string, cfg core.Config, flows []workload.Flow) call {
	return call{name: name, run: func(ctx context.Context, p *probe) (string, int64, error) {
		c := cfg
		m := p.enter(name, "core", telemetry.Default)
		var tp *timedPlanner
		if c.Planner != nil {
			c.Planner, tp = p.planner(m, c.Planner)
		}
		res, err := core.RunContext(ctx, c, flows)
		if m != nil {
			dur, alloc, d := p.exit(m)
			self := dur
			if tp != nil {
				fam := strings.TrimPrefix(layer, "core.")
				self -= tp.dur
				p.add(layer+".self_s", self.Seconds())
				p.add("sched."+fam+".plan_s", tp.dur.Seconds())
				p.add("sched."+fam+".plans", float64(tp.plans))
				if res != nil {
					p.add("sched."+fam+".reconfig_linkslots", float64(res.ReconfigLinkSlots))
					p.add("sched."+fam+".link_slots", float64(res.Slots)*float64(cfg.Planner.Nodes()*cfg.Planner.Uplinks()))
				}
			}
			p.add(layer+".run_s", dur.Seconds())
			p.add("core.self_s", self.Seconds())
			p.add("core.cells", d.counter("sirius_core_cells_delivered_total"))
			p.add("core.slots", d.counter("sirius_core_slots_total"))
			p.add("core.grants", d.counter("sirius_core_grants_total"))
			p.add("core.grants_unused", d.counter("sirius_core_grants_unused_total"))
			p.add("core.uplink_cells", d.counter("sirius_core_uplink_cells_total"))
			p.add("core.uplink_idle", d.counter("sirius_core_uplink_idle_slots_total"))
			p.add("core.alloc_mb", alloc)
		}
		if err != nil {
			return "", 0, err
		}
		if res.Completed != res.Flows {
			return "", 0, fmt.Errorf("completed %d of %d flows", res.Completed, res.Flows)
		}
		return fmt.Sprintf("flows=%d slots=%d simtime=%d bytes=%d goodput=%v makespan=%v direct=%v reconfig=%d peakq=%d short[%s] all[%s]",
			res.Flows, res.Slots, res.SimTime, res.DeliveredBytes, res.GoodputNorm, res.MakespanGoodput,
			res.DirectFraction, res.ReconfigLinkSlots, res.PeakNodeQueueBytes,
			sampleStats(&res.FCTShort), sampleStats(&res.FCTAll)), 0, nil
	}}
}

func fluidCall(name, layer string, cfg fluid.Config, flows []workload.Flow) call {
	return call{name: name, run: func(ctx context.Context, p *probe) (string, int64, error) {
		m := p.enter(name, "fluid", telemetry.Default)
		res, err := fluid.RunContext(ctx, cfg, flows)
		if m != nil {
			dur, alloc, d := p.exit(m)
			p.add(layer+".run_s", dur.Seconds())
			p.add("fluid.events", d.counter("sirius_fluid_events_total"))
			p.add("fluid.bottleneck_rounds", d.counter("sirius_fluid_bottleneck_rounds_total"))
			p.add("fluid.alloc_mb", alloc)
		}
		if err != nil {
			return "", 0, err
		}
		if res.Completed != res.Flows {
			return "", 0, fmt.Errorf("completed %d of %d flows", res.Completed, res.Flows)
		}
		return fmt.Sprintf("flows=%d simtime=%d bytes=%d goodput=%v makespan=%v short[%s] all[%s]",
			res.Flows, res.SimTime, res.DeliveredBytes, res.GoodputNorm, res.MakespanGoodput,
			sampleStats(&res.FCTShort), sampleStats(&res.FCTAll)), 0, nil
	}}
}

func dcCall(name string, cfg dc.Config, flows []workload.Flow) call {
	return call{name: name, run: func(ctx context.Context, p *probe) (string, int64, error) {
		m := p.enter(name, "dc", telemetry.Default)
		res, err := dc.RunContext(ctx, cfg, flows)
		if m != nil {
			dur, alloc, d := p.exit(m)
			p.add("dc.run_s", dur.Seconds())
			p.add("dc.rack_runs", d.counter("sirius_dc_rack_runs_total"))
			p.add("dc.alloc_mb", alloc)
		}
		if err != nil {
			return "", 0, err
		}
		if res.Completed != res.Flows {
			return "", 0, fmt.Errorf("completed %d of %d flows", res.Completed, res.Flows)
		}
		return fmt.Sprintf("flows=%d intra=%d inter=%d bytes=%d goodput=%v peaklocal=%d short[%s] all[%s]",
			res.Flows, res.IntraRack, res.InterRack, res.DeliveredBytes, res.ServerGoodput, res.PeakLocalBytes,
			sampleStats(&res.FCTShort), sampleStats(&res.FCTAll)), 0, nil
	}}
}

// wireCall runs one prototype phase with its own telemetry registry and
// checks it lost nothing: every node sent and received one cell per
// schedule slot of every epoch, nothing was misrouted or dropped, and
// the emulator routed exactly the scheduled frame count error-free.
func wireCall(layer string, cfg wire.PrototypeConfig) (call, error) {
	// The nodes run the fabric-wide cyclic schedule on uplink 0.
	base, err := schedule.NewGrouped(cfg.Nodes, cfg.Nodes, 1)
	if err != nil {
		return call{}, err
	}
	perNode := cfg.Epochs * base.SlotsPerEpoch()
	expect := int64(cfg.Nodes * perNode)
	return call{name: layer, run: func(ctx context.Context, p *probe) (string, int64, error) {
		c := cfg
		c.Telemetry = telemetry.NewRegistry()
		if p != nil {
			c.Tracer = telemetry.NewTracer(cfg.Nodes*cfg.Epochs + 1024)
		}
		m := p.enter(layer, "wire", c.Telemetry)
		fs, err := wire.RunPrototypeCfg(c)
		if m != nil {
			dur, alloc, d := p.exit(m)
			p.add(layer+".run_s", dur.Seconds())
			p.add(layer+".frames", d.counter("sirius_awgr_frames_routed_total"))
			p.add("wire.frames", d.counter("sirius_awgr_frames_routed_total"))
			p.add("wire.coalesced", d.counter("sirius_awgr_frames_coalesced_total"))
			for _, cause := range []string{"batch", "bytes", "drain", "idle", "register"} {
				n := d.counterLabels("sirius_awgr_flushes_total", `{cause="`+cause+`"}`)
				p.add("wire.flushes."+cause, n)
				p.add("wire.flushes", n)
			}
			p.peak("wire.parked_peak", d.gauge("sirius_awgr_parked_frames_peak"))
			p.add("wire.alloc_mb", alloc)
			p.epochSpans(c.Tracer, m.begin)
		}
		if err != nil {
			return "", 0, err
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "routed=%d cells=%d ber=%v", fs.Routed, fs.Cells, fs.BER)
		var fails []string
		for _, n := range fs.Nodes {
			fmt.Fprintf(&sb, " n%d=%d/%d/%d/%d/%d", n.Node, n.Sent, n.Received, n.Misrouted, n.BitErrors, n.Bits)
			if n.Sent != perNode || n.Received != perNode || n.Misrouted != 0 {
				fails = append(fails, fmt.Sprintf("node %d sent/received/misrouted %d/%d/%d, want %d/%d/0",
					n.Node, n.Sent, n.Received, n.Misrouted, perNode, perNode))
			}
		}
		if fs.Routed != expect {
			fails = append(fails, fmt.Sprintf("routed %d frames, want %d", fs.Routed, expect))
		}
		if fs.Dropped != 0 || fs.GreyDropped != 0 {
			fails = append(fails, fmt.Sprintf("dropped %d frames (grey %d)", fs.Dropped, fs.GreyDropped))
		}
		if !fs.ErrFree {
			fails = append(fails, fmt.Sprintf("not error-free: BER %v", fs.BER))
		}
		if len(fails) > 0 {
			return "", 0, errors.New(strings.Join(fails, "; "))
		}
		return sb.String(), int64(fs.Cells), nil
	}}, nil
}

// epochSpans folds the per-epoch spans a wire call's tracer recorded
// into the pass: their durations, the fabric's bring-up time (call start
// to the first epoch), and, when the pass keeps them, the spans
// themselves for the trace file (Parent -1: node spans overlap, so they
// stay out of the self-time tree).
func (p *probe) epochSpans(tr *telemetry.Tracer, callStart time.Time) {
	first := time.Time{}
	for _, ev := range tr.Events() {
		if ev.Name != "epoch" || ev.Ph != "X" {
			continue
		}
		begin := tr.Start().Add(time.Duration(ev.TS) * time.Microsecond)
		if first.IsZero() || begin.Before(first) {
			first = begin
		}
		p.epochUS = append(p.epochUS, float64(ev.Dur))
		if p.keepEpochs {
			p.log.spans = append(p.log.spans, span{ID: len(p.log.spans) + 1, Parent: -1, TID: ev.TID,
				Name: ev.Name, Cat: ev.Cat, Begin: begin, Dur: time.Duration(ev.Dur) * time.Microsecond})
		}
	}
	if !first.IsZero() {
		p.add("wire.bringup_s", first.Sub(callStart).Seconds())
	}
}
