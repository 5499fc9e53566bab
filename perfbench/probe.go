package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sirius/internal/core"
	"sirius/internal/telemetry"
)

// sums accumulates one traced pass's per-layer quantities by metric name.
type sums map[string]float64

// benchTID is the trace thread of the benchmark's own spans; the wire
// nodes' epoch spans keep their node ids as thread ids.
const benchTID = 100

// span is one traced interval. Parent 0 means a root (a pass span).
type span struct {
	ID, Parent int
	TID        int
	Name, Cat  string
	Begin      time.Time
	Dur        time.Duration
}

// spanLog keeps every span of a run in memory; it is written out once,
// when the run ends.
type spanLog struct {
	spans []span
}

func (l *spanLog) open(parent int, name, cat string) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, TID: benchTID, Name: name, Cat: cat, Begin: time.Now()})
	return len(l.spans)
}

func (l *spanLog) close(id int) time.Duration {
	s := &l.spans[id-1]
	s.Dur = time.Since(s.Begin)
	return s.Dur
}

// selfTimes returns the total self time of each category of the
// benchmark's spans: their durations minus the part their child spans
// cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(l.spans)+1)
	for _, s := range l.spans {
		if s.TID == benchTID && s.Parent > 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := map[string]time.Duration{}
	for _, s := range l.spans {
		if s.TID == benchTID {
			out[s.Cat] += s.Dur - child[s.ID]
		}
	}
	return out
}

// write stores every span as a Chrome trace_event file, the format of
// siriussim -trace-events, with times relative to the first span.
func (l *spanLog) write(path string) error {
	events := make([]telemetry.TraceEvent, 0, len(l.spans))
	var origin time.Time
	for _, s := range l.spans {
		if origin.IsZero() || s.Begin.Before(origin) {
			origin = s.Begin
		}
	}
	for _, s := range l.spans {
		ev := telemetry.TraceEvent{Name: s.Name, Cat: s.Cat, Ph: "X", TID: s.TID,
			TS: s.Begin.Sub(origin).Microseconds(), Dur: max(s.Dur.Microseconds(), 1)}
		if s.TID == benchTID {
			ev.Args = map[string]string{"id": strconv.Itoa(s.ID), "parent": strconv.Itoa(s.Parent)}
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// probe is a traced pass's view of the layers. Every method is a no-op
// on a nil probe, so an untraced pass runs the layers bare.
type probe struct {
	sums sums
	log  *spanLog
	pass int // span id of the pass
	// keepEpochs adds the wire nodes' own per-epoch spans
	// (PrototypeConfig.Tracer) to the span log.
	keepEpochs bool
	// epochUS holds the duration of every wire epoch span, in µs.
	epochUS []float64
}

func (p *probe) add(name string, v float64) {
	if p != nil {
		p.sums[name] += v
	}
}

// peak keeps the largest value seen for name.
func (p *probe) peak(name string, v float64) {
	if p != nil && v > p.sums[name] {
		p.sums[name] = v
	}
}

// mark is the state captured when a traced call starts.
type mark struct {
	id    int
	alloc uint64
	reg   *telemetry.Registry
	snap  *telemetry.Snapshot
	begin time.Time
}

// enter opens a span for one engine call (category cat) and records
// the allocation and telemetry counters the call will be charged with.
func (p *probe) enter(name, cat string, reg *telemetry.Registry) *mark {
	if p == nil {
		return nil
	}
	m := &mark{reg: reg, snap: reg.Snapshot(), alloc: totalAlloc()}
	m.id = p.log.open(p.pass, name, cat)
	m.begin = p.log.spans[m.id-1].Begin
	return m
}

// exit closes the call's span and reports what the call cost.
func (p *probe) exit(m *mark) (dur time.Duration, allocMB float64, d delta) {
	dur = p.log.close(m.id)
	allocMB = float64(totalAlloc()-m.alloc) / 1e6
	return dur, allocMB, delta{m.snap, m.reg.Snapshot()}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// delta is the change of a telemetry registry across one call.
type delta struct{ before, after *telemetry.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.after.CounterTotal(name) - d.before.CounterTotal(name))
}

func (d delta) counterLabels(name, labels string) float64 {
	return float64(d.after.Counter(name, labels) - d.before.Counter(name, labels))
}

func (d delta) gauge(name string) float64 {
	for _, g := range d.after.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// timedPlanner wraps a planner so a traced pass sees the time spent in
// Plan, as child spans of the core call that drives it.
type timedPlanner struct {
	core.Planner
	log    *spanLog
	parent int
	plans  int
	dur    time.Duration
}

func (t *timedPlanner) Plan(epoch int64, demand []int32, dst []int32) int {
	id := t.log.open(t.parent, "plan", "sched")
	r := t.Planner.Plan(epoch, demand, dst)
	t.dur += t.log.close(id)
	t.plans++
	return r
}

// planner returns the planner a core call should run: the bare planner
// untraced, a timing wrapper under the call's span when traced.
func (p *probe) planner(m *mark, pl core.Planner) (core.Planner, *timedPlanner) {
	if p == nil {
		return pl, nil
	}
	t := &timedPlanner{Planner: pl, log: p.log, parent: m.id}
	return t, t
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank p-th percentile of v (0 for none).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
