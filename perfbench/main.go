// Command perfbench is the repository's benchmark. Given a workload and
// a seed it generates the workload's inputs, runs them through the
// layers' public entry points (core, sched, fluid, dc and wire) at the
// program's defaults, checks every output, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Untraced (-trace 0) it makes one warm-up pass, then repeats timed
// passes over the workload for -seconds and reports the end-to-end
// metrics, with every time scaled to the reference speed of the host
// (see calibrate.go). Traced (-trace 1) it spends half
// of -seconds on untraced passes and half on traced ones, which record
// a span around every layer call and every planner Plan, and reports
// the per-layer metrics, the tracing overhead, and a Chrome trace_event
// file (-trace-out).
//
//	go run . -workload fig9-small -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"sirius/internal/telemetry"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulators or the fabric sees;
// every workload reports all of them.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"cells_per_s", "cells/s"},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports that layer's work and time as 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"workload.generate_s", "s"},
		{"core.rg.run_s", "s"},
		{"core.ideal.run_s", "s"},
	}
	for _, f := range schedFamilies {
		m = append(m, metricDef{"core." + f + ".run_s", "s"}, metricDef{"core." + f + ".self_s", "s"})
	}
	m = append(m,
		metricDef{"core.cells", "count"},
		metricDef{"core.slots", "count"},
		metricDef{"core.ns_per_cell", "ns"},
		metricDef{"core.grants", "count"},
		metricDef{"core.grant_unused_frac", "ratio"},
		metricDef{"core.uplink_slots", "count"},
		metricDef{"core.uplink_idle_frac", "ratio"},
		metricDef{"core.alloc_mb", "MB"},
	)
	for _, f := range schedFamilies {
		p := "sched." + f
		m = append(m,
			metricDef{p + ".plan_s", "s"},
			metricDef{p + ".plans", "count"},
			metricDef{p + ".us_per_plan", "us"},
			metricDef{p + ".link_slots", "count"},
			metricDef{p + ".reconfig_frac", "ratio"},
		)
	}
	return append(m,
		metricDef{"fluid.esn.run_s", "s"},
		metricDef{"fluid.osub.run_s", "s"},
		metricDef{"fluid.events", "count"},
		metricDef{"fluid.bottleneck_rounds", "count"},
		metricDef{"fluid.ns_per_event", "ns"},
		metricDef{"fluid.alloc_mb", "MB"},
		metricDef{"dc.run_s", "s"},
		metricDef{"dc.rack_runs", "count"},
		metricDef{"dc.alloc_mb", "MB"},
		metricDef{"wire.p64.run_s", "s"},
		metricDef{"wire.p562.run_s", "s"},
		metricDef{"wire.p64.frames_per_s", "frames/s"},
		metricDef{"wire.p562.frames_per_s", "frames/s"},
		metricDef{"wire.bringup_s", "s"},
		metricDef{"wire.epoch_us_p50", "us"},
		metricDef{"wire.epoch_us_p99", "us"},
		metricDef{"wire.frames", "count"},
		metricDef{"wire.flushes", "count"},
		metricDef{"wire.flushes.batch", "count"},
		metricDef{"wire.flushes.bytes", "count"},
		metricDef{"wire.flushes.drain", "count"},
		metricDef{"wire.flushes.idle", "count"},
		metricDef{"wire.frames_per_flush", "frames"},
		metricDef{"wire.coalesced_frac", "ratio"},
		metricDef{"wire.parked_peak", "frames"},
		metricDef{"wire.alloc_mb", "MB"},
		metricDef{"bench.self_s", "s"},
		metricDef{"bench.calibration_s", "s"},
		metricDef{"bench.wall_raw_s", "s"},
		metricDef{"trace.wall_s", "s"},
		metricDef{"trace.overhead_s", "s"},
		metricDef{"ops_failed_frac", "ratio"},
	)
}()

// A run times at least setupSamples samples of building its suite, for
// at least setupMin in all; a sample repeats the build until it has
// taken setupSample, so a set-up of microseconds is timed over many
// builds. The calibration kernel runs before the first sample and after
// every sample; setup_s is the median per-build time of the samples,
// each scaled to the reference speed.
const (
	setupSamples = 5
	setupMin     = 200 * time.Millisecond
	setupSample  = 10 * time.Millisecond
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	tiny      bool
	refs      string
	reference string // the recorded digest for this workload, size and seed
	traceOut  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var size string
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed passes run")
	fs.IntVar(&trace, "trace", 0, "1 runs traced passes too and reports the per-layer metrics")
	fs.StringVar(&size, "size", "full", "full, or tiny for a smoke test")
	fs.StringVar(&o.refs, "refs", "", "JSON file of the recorded digests of the simulated statistics, keyed workload/size/seed")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this Chrome trace_event file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	o.tiny = size == "tiny"
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case size != "full" && size != "tiny":
		fmt.Fprintf(stderr, "perfbench: unknown size %q\n", size)
		return 2
	case o.seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if o.refs != "" {
		ref, err := lookupReference(o.refs, fmt.Sprintf("%s/%s/%d", o.workload, size, o.seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		o.reference = ref
	}
	res, err := measure(context.Background(), o, w, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// lookupReference reads the recorded digest for key; a missing file or
// key means there is none.
func lookupReference(path, key string) (string, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	var refs map[string]string
	if err := json.Unmarshal(data, &refs); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return refs[key], nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pass is what one pass over the suite produced.
type pass struct {
	wall   time.Duration // the calls' wall times, summed
	scaled float64       // wall at the reference speed, in seconds
	cells  int64
	stats  []string        // per call; "" when the call failed
	cals   []time.Duration // kernel times: before every call and after the last
}

// runPass runs every call of the suite once. The core's delivered cells
// are read as a delta of the process telemetry; wire calls report
// theirs. With a calibrator, the kernel runs before every call and
// after the last, and each call's wall time is scaled by the kernel
// times on either side of it.
func runPass(ctx context.Context, s *suite, p *probe, cal *calibrator, stderr io.Writer) (pass, int) {
	runtime.GC()
	if p != nil {
		p.pass = p.log.open(0, "pass", "bench")
		defer p.log.close(p.pass)
	}
	before := telemetry.Default.Snapshot()
	var pr pass
	failed := 0
	if cal != nil {
		pr.cals = append(pr.cals, cal.run())
	}
	for _, c := range s.calls {
		start := time.Now()
		stats, cells, err := c.run(ctx, p)
		d := time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.name, err)
			failed++
		}
		if cal != nil {
			pr.cals = append(pr.cals, cal.run())
			pr.scaled += scale(d, pr.cals[len(pr.cals)-2], pr.cals[len(pr.cals)-1])
		}
		pr.wall += d
		pr.stats = append(pr.stats, stats)
		pr.cells += cells
	}
	pr.cells += telemetry.Default.Snapshot().CounterTotal("sirius_core_cells_delivered_total") -
		before.CounterTotal("sirius_core_cells_delivered_total")
	return pr, failed
}

// timeSetup builds the workload's suite in samples (see setupSamples)
// and returns the last suite with the median per-build set-up time and
// flow-generation time.
func timeSetup(o options, w *workloadDef, cal *calibrator) (s *suite, setup, generate float64, err error) {
	var setups, gens []float64
	before := cal.run()
	for t := time.Now(); len(setups) < setupSamples || time.Since(t) < setupMin; {
		var builds int
		var gen time.Duration
		t0 := time.Now()
		for builds == 0 || time.Since(t0) < setupSample {
			if s, err = w.setup(o.seed, o.tiny); err != nil {
				return nil, 0, 0, fmt.Errorf("setup: %w", err)
			}
			builds++
			gen += s.generate
		}
		d := time.Since(t0) / time.Duration(builds)
		after := cal.run()
		setups = append(setups, scale(d, before, after))
		before = after
		gens = append(gens, gen.Seconds()/float64(builds))
	}
	return s, median(setups), median(gens), nil
}

// measure times the workload's set-up, then runs a warm-up pass and
// timed passes and checks that every pass reproduces the first pass's
// statistics.
func measure(ctx context.Context, o options, w *workloadDef, stdout, stderr io.Writer) (*result, error) {
	host := captureHost()
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	s, setup, generate, err := timeSetup(o, w, cal)
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metricValue{}}
	var first []string
	// check counts a pass's failed calls and calls whose statistics
	// differ from the first pass's: at one seed they must repeat exactly.
	check := func(pr pass, failed int) {
		res.Attempted += len(s.calls)
		if first == nil {
			first = pr.stats
		} else {
			for i, st := range pr.stats {
				if st != "" && first[i] != "" && st != first[i] {
					fmt.Fprintf(stderr, "perfbench: %s: statistics differ from the first pass\n", s.calls[i].name)
					failed++
				}
			}
		}
		res.Failed += failed
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	untracedBudget := budget
	if o.trace {
		untracedBudget = budget / 2
	}
	// The warm-up pass faults in the heap and fills the caches; it is
	// checked but not timed.
	check(runPass(ctx, s, nil, nil, stderr))
	var walls, scaled, rates, cals []float64
	start := time.Now()
	for len(walls) < 2 || time.Since(start) < untracedBudget {
		pr, failed := runPass(ctx, s, nil, cal, stderr)
		check(pr, failed)
		var pc []float64
		for _, c := range pr.cals {
			pc = append(pc, c.Seconds())
		}
		cals = append(cals, median(pc))
		walls = append(walls, pr.wall.Seconds())
		scaled = append(scaled, pr.scaled)
		rates = append(rates, float64(pr.cells)/pr.scaled)
	}

	var (
		log          spanLog
		tracedWalls  []float64
		layerSamples = map[string][]float64{}
		epochUS      []float64
	)
	if o.trace {
		start = time.Now()
		for len(tracedWalls) < 1 || time.Since(start) < budget-untracedBudget {
			p := &probe{sums: sums{}, log: &log, keepEpochs: len(tracedWalls) == 0}
			pr, failed := runPass(ctx, s, p, nil, stderr)
			check(pr, failed)
			tracedWalls = append(tracedWalls, pr.wall.Seconds())
			for k, v := range deriveLayers(p.sums) {
				layerSamples[k] = append(layerSamples[k], v)
			}
			epochUS = append(epochUS, p.epochUS...)
		}
	}

	digest := digestOf(first)
	if o.reference != "" && o.reference != digest {
		fmt.Fprintf(stderr, "perfbench: digest %s differs from the reference %s\n", digest, o.reference)
		res.Failed += len(s.calls)
	}
	res.Correct = res.Failed == 0

	report := map[string]any{
		"workload": w.name, "seed": o.seed, "tiny": o.tiny, "host": host,
		"digest": digest, "reference": o.reference,
		"calls_per_pass": len(s.calls), "pass_wall_s": walls, "scaled_pass_wall_s": scaled,
		"calibration_s": cals, "traced_pass_wall_s": tracedWalls,
	}
	if line, err := json.Marshal(report); err == nil {
		fmt.Fprintln(stdout, string(line))
	}

	e2e := map[string]float64{
		"wall_s":      median(scaled),
		"setup_s":     setup,
		"mem_peak_mb": peakRSSMB(),
		"cells_per_s": median(rates),
	}
	if !o.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		return res, nil
	}

	layers := map[string]float64{}
	for k, v := range layerSamples {
		layers[k] = median(v)
	}
	layers["workload.generate_s"] = generate
	layers["bench.self_s"] = log.selfTimes()["bench"].Seconds() / float64(len(tracedWalls))
	layers["wire.epoch_us_p50"] = percentile(epochUS, 50)
	layers["wire.epoch_us_p99"] = percentile(epochUS, 99)
	layers["bench.calibration_s"] = median(cals)
	layers["bench.wall_raw_s"] = median(walls)
	layers["trace.wall_s"] = median(tracedWalls)
	layers["trace.overhead_s"] = median(tracedWalls) - median(walls)
	layers["ops_failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
	}
	printSelfTimes(stdout, &log, len(tracedWalls), e2e, layers)
	if o.traceOut != "" {
		if err := log.write(o.traceOut); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	return res, nil
}

// deriveLayers turns one traced pass's sums into per-layer metrics,
// including the ratios, each beside its base count.
func deriveLayers(s sums) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s {
		out[k] = v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["core.ns_per_cell"] = ratio(s["core.self_s"]*1e9, s["core.cells"])
	out["core.grant_unused_frac"] = ratio(s["core.grants_unused"], s["core.grants"])
	out["core.uplink_slots"] = s["core.uplink_cells"] + s["core.uplink_idle"]
	out["core.uplink_idle_frac"] = ratio(s["core.uplink_idle"], out["core.uplink_slots"])
	for _, f := range schedFamilies {
		p := "sched." + f
		out[p+".us_per_plan"] = ratio(s[p+".plan_s"]*1e6, s[p+".plans"])
		out[p+".reconfig_frac"] = ratio(s[p+".reconfig_linkslots"], s[p+".link_slots"])
	}
	out["fluid.ns_per_event"] = ratio((s["fluid.esn.run_s"]+s["fluid.osub.run_s"])*1e9, s["fluid.events"])
	for _, p := range []string{"wire.p64", "wire.p562"} {
		out[p+".frames_per_s"] = ratio(s[p+".frames"], s[p+".run_s"])
	}
	out["wire.frames_per_flush"] = ratio(s["wire.frames"], s["wire.flushes"])
	out["wire.coalesced_frac"] = ratio(s["wire.coalesced"], s["wire.frames"])
	return out
}

// printSelfTimes prints each layer's self time per traced pass next to
// the untraced end-to-end numbers.
func printSelfTimes(w io.Writer, log *spanLog, passes int, e2e, layers map[string]float64) {
	fmt.Fprintf(w, "# untraced: wall_s %.4f (raw %.4f)  setup_s %.4f  cells_per_s %.0f  mem_peak_mb %.1f\n",
		e2e["wall_s"], layers["bench.wall_raw_s"], e2e["setup_s"], e2e["cells_per_s"], e2e["mem_peak_mb"])
	self := log.selfTimes()
	var total time.Duration
	var cats []string
	for c, d := range self {
		total += d
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return self[cats[i]] > self[cats[j]] })
	fmt.Fprintf(w, "# traced self time per pass (%d passes):\n", passes)
	for _, c := range cats {
		fmt.Fprintf(w, "#   %-6s %9.4f s  %5.1f%%\n", c, self[c].Seconds()/float64(passes), 100*float64(self[c])/float64(total))
	}
}

// digestOf hashes the first pass's per-call statistics.
func digestOf(stats []string) string {
	h := sha256.Sum256([]byte(strings.Join(stats, "\n")))
	return hex.EncodeToString(h[:16])
}
