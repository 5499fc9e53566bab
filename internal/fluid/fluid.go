// Package fluid computes the paper's idealized electrically-switched
// baselines, ESN (Ideal) and ESN-OSUB (Ideal) (§7).
//
// The paper defines these baselines as upper bounds: per-flow queues and
// back-pressure at every switch with packet spraying across all paths of a
// folded Clos — "an upper bound on the performance achievable by any rate
// control and routing protocol". The steady state of that idealization is
// exactly max-min fair bandwidth allocation subject to the fabric's
// capacity constraints: each endpoint's NIC in both directions and, for
// the oversubscribed variant, each rack's aggregation capacity. This
// package computes that allocation with progressive filling, re-evaluated
// at every flow arrival and completion, and integrates flow progress
// exactly between events.
//
// # Performance model
//
// The event loop is engineered for throughput and byte-stable output
// (see DESIGN.md §6 for the full discussion):
//
//   - The active set is a dense struct-of-arrays flow table with
//     swap-remove deletion — no maps, no per-flow heap objects. Iteration
//     order is deterministic by construction, so float accumulation
//     (window goodput, FCT sums) is run-to-run identical, which the old
//     map-based loop was not.
//   - Arrivals are consumed from the (already sorted) input by a cursor;
//     the next completion is an exact min-reduction fused with the
//     progress-integration pass over the dense table. Integration MUST
//     touch every positive-rate flow per event anyway — the pre-rewrite
//     solver decremented `remaining` per event, and reproducing its
//     output bit-for-bit (the golden-fixture contract) forbids lazy
//     "virtual finish time" bookkeeping whose float drift, while tiny,
//     would change completions by ulps. Fusing the min into that
//     mandatory pass makes next-event selection free.
//   - The max-min solver keeps per-constraint membership counts and a
//     winner (tournament) tree over the per-constraint fair shares
//     caps[c]/counts[c] incrementally (at most four divisions and
//     leaf-to-root walks per event), resets solver state with
//     memcopies, and marks frozen flows with an epoch stamp. Each
//     progressive-filling round takes its bottleneck from the tree's
//     root, keyed by (share, index) so it is exactly the reference
//     ascending-index strict-< scan's pick, and freezes only the flows
//     crossing it, found through per-constraint member lists (CSR
//     layout) rebuilt per allocation from the exact membership counts.
//     A round's freezes only subtract from capacities and counts; each
//     constraint they touch gets one division and one tree update after
//     the round (early-stopping walks, or one bottom-up rebuild when the
//     batch is large). The steady-state event loop performs zero heap
//     allocations (pinned by TestEventLoopZeroAlloc).
//
// Run-to-run determinism note: the pre-rewrite implementation iterated a
// Go map when accumulating the window-goodput integral, so GoodputNorm
// jittered in its last one or two bits between runs. The dense table
// fixes the summation order; output is now fully deterministic.
package fluid

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"sirius/internal/metrics"
	"sirius/internal/simtime"
	"sirius/internal/telemetry"
	"sirius/internal/workload"
)

// Config parameterizes the fabric.
type Config struct {
	// Endpoints is the number of attached endpoints (servers, or racks
	// when comparing at rack granularity).
	Endpoints int
	// EndpointRate is each endpoint's NIC rate in both directions.
	EndpointRate simtime.Rate
	// EndpointsPerRack groups endpoints into racks for the oversubscribed
	// variant; 0 or 1 disables the rack tier.
	EndpointsPerRack int
	// Oversub is the aggregation-tier oversubscription ratio: inter-rack
	// capacity per rack is EndpointsPerRack*EndpointRate/Oversub.
	// 1 = non-blocking (ESN Ideal).
	Oversub int
	// BaseRTT is added to every flow completion time (propagation and
	// switching latency floor).
	BaseRTT simtime.Duration
}

// Results mirrors the core simulator's results for comparison.
type Results struct {
	Flows            int
	Completed        int
	SimTime          simtime.Time
	DeliveredBytes   int64
	GoodputNorm      float64 // over the arrival window (see core.Results)
	MakespanGoodput  float64 // over the full makespan
	FCTAll, FCTShort metrics.Sample
}

// Process-wide observability counters, exposed so cmd/siriussim can print
// a flows/sec summary per experiment without threading state through the
// harness (mirrors core.Counters). Cumulative across every Run in the
// process; updated once per completed run, not per event.
var (
	statFlows  atomic.Int64
	statEvents atomic.Int64
)

// Counters reports the cumulative number of flows completed and events
// (arrivals plus completions) processed by every Run in this process.
// Snapshot before and after a workload to compute its flows/sec.
func Counters() (flows, events int64) {
	return statFlows.Load(), statEvents.Load()
}

// Run simulates the flows to completion.
func Run(cfg Config, flows []workload.Flow) (*Results, error) {
	return RunContext(context.Background(), cfg, flows)
}

// RunContext is Run with cancellation: the event loop polls ctx
// periodically and returns ctx.Err() when it is done, mirroring
// core.RunContext so sweep workers over the ESN baseline abort promptly.
func RunContext(ctx context.Context, cfg Config, flows []workload.Flow) (*Results, error) {
	e, err := newEngine(cfg, flows)
	if err != nil {
		return nil, err
	}
	for !e.done() {
		// Poll for cancellation every so many events; each event does
		// O(active) work, so this bounds the abort latency tightly.
		if e.events++; e.events&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := e.step(); err != nil {
			return nil, err
		}
	}
	return e.finish(), nil
}

// sortedByArrival reports whether the flows are already in non-decreasing
// arrival order (workload.Generate guarantees it, so the common case
// skips the defensive copy + stable sort entirely).
func sortedByArrival(flows []workload.Flow) bool {
	for i := 1; i < len(flows); i++ {
		if flows[i].Arrival < flows[i-1].Arrival {
			return false
		}
	}
	return true
}

// engine is the dense event-loop state. One engine runs one workload;
// step() processes a single event (arrival or completion) so tests can
// drive and measure the loop directly.
type engine struct {
	cfg     Config
	ordered []workload.Flow
	next    int   // arrival cursor into ordered
	events  int64 // events processed (cancellation-poll cadence)
	rounds  int64 // bottleneck rounds across every allocate() pass
	freezes int64 // flow freezes across every allocate() pass

	now        float64 // seconds
	windowEnd  float64 // last arrival: goodput window end
	windowBits float64
	deliveredB int64

	res *Results

	// Dense active-flow table (struct of arrays, swap-remove on
	// completion). Backing arrays are sized to len(flows) up front — the
	// peak active count cannot exceed it — so the loop never reallocates.
	nAct      int
	remaining []float64 // bits
	rate      []float64 // bits/s
	cons      [][4]int32
	bytes     []int
	arrival   []simtime.Time
	frozen    []int64 // allocate() epoch stamps, parallel to the table

	// Max-min solver state. Constraint layout: [0,n) endpoint egress,
	// [n,2n) endpoint ingress, then per-rack egress and ingress when
	// oversubscribed.
	//
	// tree0 is a winner tree (see winnerTree) whose leaves cache every
	// constraint's round-0 fair share caps0[c]/counts0[c] (+Inf when
	// unused). It is maintained incrementally as flows arrive and
	// depart: at most four divisions and leaf-to-root walks per event.
	// allocate() copies it into the tree scratch and updates a leaf once
	// per round for every constraint the round's freezes touched, so the
	// bottleneck search does no divisions. The cached value is computed
	// by the same expression the reference implementation evaluated
	// inline (caps[c]/float64(counts[c])), so the selection observes
	// bit-identical shares and picks bit-identical bottlenecks.
	nCons    int
	rackBase int
	caps0    []float64 // capacities (bits/s)
	counts0  []int32   // live membership counts, maintained incrementally
	tree0    winnerTree
	caps     []float64 // allocate() scratch
	counts   []int32   // allocate() scratch
	tree     winnerTree
	depth    int   // internal nodes on the longest leaf-to-root path
	epoch    int64 // allocate() invocation stamp

	// Constraints touched by the current progressive-filling round,
	// listed once each: touched[c] holds the round stamp (e.rounds) of
	// the last round that touched c.
	dirty   []int32
	touched []int64

	// CSR member lists, rebuilt per allocate() from counts0 (which is
	// exactly the per-constraint membership count): members[offsets[c]:
	// offsets[c+1]] lists the dense-table indices of the flows crossing
	// constraint c, in ascending order — the same order the reference
	// full-table freeze scan visits them.
	offsets []int32 // len nCons+1
	fill    []int32 // len nCons, build cursors
	members []int32 // cap 4*len(flows)
}

func newEngine(cfg Config, flows []workload.Flow) (*engine, error) {
	switch {
	case cfg.Endpoints < 2:
		return nil, fmt.Errorf("fluid: need >= 2 endpoints")
	case cfg.EndpointRate <= 0:
		return nil, fmt.Errorf("fluid: non-positive endpoint rate")
	case cfg.Oversub < 1:
		return nil, fmt.Errorf("fluid: oversub must be >= 1")
	case cfg.Oversub > 1 && cfg.EndpointsPerRack < 1:
		return nil, fmt.Errorf("fluid: oversubscription needs a rack grouping")
	case cfg.EndpointsPerRack > 0 && cfg.Endpoints%cfg.EndpointsPerRack != 0:
		return nil, fmt.Errorf("fluid: endpoints must divide into racks")
	case len(flows) == 0:
		return nil, fmt.Errorf("fluid: no flows")
	}
	for i, f := range flows {
		if f.Src < 0 || f.Src >= cfg.Endpoints || f.Dst < 0 || f.Dst >= cfg.Endpoints ||
			f.Src == f.Dst || f.Bytes < 1 {
			return nil, fmt.Errorf("fluid: invalid flow %+v", f)
		}
		if f.ID != i {
			return nil, fmt.Errorf("fluid: flow IDs must equal their index (flow %d has ID %d)", i, f.ID)
		}
	}
	// Sort by arrival. workload.Generate already emits sorted flows, so
	// the defensive copy + stable sort only runs on unsorted input.
	ordered := flows
	if !sortedByArrival(flows) {
		ordered = make([]workload.Flow, len(flows))
		copy(ordered, flows)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })
	}

	e := &engine{
		cfg:       cfg,
		ordered:   ordered,
		windowEnd: ordered[len(ordered)-1].Arrival.Seconds(),
		res:       &Results{Flows: len(flows)},
		remaining: make([]float64, len(flows)),
		rate:      make([]float64, len(flows)),
		cons:      make([][4]int32, len(flows)),
		bytes:     make([]int, len(flows)),
		arrival:   make([]simtime.Time, len(flows)),
		frozen:    make([]int64, len(flows)),
	}
	// Every flow completes exactly once: reserving the samples up front
	// keeps the event loop free of append-regrowth allocations.
	e.res.FCTAll.Reserve(len(flows))
	e.res.FCTShort.Reserve(len(flows))

	n := cfg.Endpoints
	e.nCons = 2 * n
	e.rackBase = 2 * n
	rackCap := 0.0
	racks := 0
	if cfg.Oversub > 1 {
		racks = n / cfg.EndpointsPerRack
		e.nCons += 2 * racks
		rackCap = float64(cfg.EndpointRate) * float64(cfg.EndpointsPerRack) / float64(cfg.Oversub)
	}
	e.caps0 = make([]float64, e.nCons)
	for i := 0; i < 2*n; i++ {
		e.caps0[i] = float64(cfg.EndpointRate)
	}
	for i := 0; i < 2*racks; i++ {
		e.caps0[e.rackBase+i] = rackCap
	}
	e.caps = make([]float64, e.nCons)
	e.counts0 = make([]int32, e.nCons)
	e.counts = make([]int32, e.nCons)
	e.tree0 = newWinnerTree(e.nCons)
	e.tree = newWinnerTree(e.nCons)
	e.depth = bits.Len(uint(2*e.nCons-1)) - 1
	e.dirty = make([]int32, 0, e.nCons)
	e.touched = make([]int64, e.nCons)
	e.offsets = make([]int32, e.nCons+1)
	e.fill = make([]int32, e.nCons)
	e.members = make([]int32, 4*len(flows))
	return e, nil
}

// winnerTree is a tournament tree over n constraints keyed
// lexicographically by (share, index), laid out iteratively with no
// padding: leaf c sits at n+c, and node i (1 <= i < n) holds the winner
// of its children 2i and 2i+1. The order is total, so whatever the
// tree's shape, node 1 holds the lowest-index constraint among those
// with the strictly smallest share: exactly what the reference
// ascending-index strict-< scan selects. A node stores its winner's
// share next to its id, so it is recomputed from its two children alone.
type winnerTree []node

// node is a tree slot: a constraint and the IEEE-754 bits of its share.
// A share is +Inf or a capacity clamped at +0 divided by a positive
// count, never negative, -0 or NaN, so the bit patterns order as the
// shares do when compared as unsigned integers, and the comparisons
// stay in integer registers.
type node struct {
	key uint64
	c   int32
}

// newWinnerTree returns a tree over n empty constraints (share +Inf).
func newWinnerTree(n int) winnerTree {
	t := make(winnerTree, 2*n)
	for c := 0; c < n; c++ {
		t[n+c] = node{math.Float64bits(math.Inf(1)), int32(c)}
	}
	t.rebuild()
	return t
}

// set stores share in constraint c's leaf. The nodes above it are
// stale until fix(c) or rebuild runs.
func (t winnerTree) set(c int32, share float64) {
	t[len(t)/2+int(c)].key = math.Float64bits(share)
}

// root returns the winning constraint and its share.
func (t winnerTree) root() (int32, float64) {
	return t[1].c, math.Float64frombits(t[1].key)
}

// pull returns the winner of node i's children: strictly smaller share
// first, lowest index among equal shares.
func (t winnerTree) pull(i int) node {
	p := t[2*i : 2*i+2 : 2*i+2]
	w, r := p[0], p[1]
	if r.key < w.key {
		w = r
	}
	if r.key == w.key && r.c < w.c {
		w = r
	}
	return w
}

// fix recomputes the nodes on the path from constraint c's leaf to the
// root after its share changed. It stops at the first node whose
// recomputed value (winner and share) equals the stored one: a node
// depends only on its two children's stored values, so no node above
// it changes either. The same holds for a batch of changed leaves fixed
// one after another: before the first fix, only parents of changed
// leaves can be stale; each fix leaves every node it stops at or passes
// consistent with its children, and changes no node without
// recomputing its parent.
func (t winnerTree) fix(c int32) {
	for i := (len(t)/2 + int(c)) >> 1; i >= 1; i >>= 1 {
		w := t.pull(i)
		if w == t[i] {
			return
		}
		t[i] = w
	}
}

// rebuild recomputes every internal node bottom-up in one pass.
func (t winnerTree) rebuild() {
	for i := len(t)/2 - 1; i >= 1; i-- {
		t[i] = t.pull(i)
	}
}

// constraintsFor returns the constraint indices of a flow, -1 padded.
func (e *engine) constraintsFor(src, dst int) [4]int32 {
	n := e.cfg.Endpoints
	c := [4]int32{int32(src), int32(n + dst), -1, -1}
	if e.cfg.Oversub > 1 {
		srcRack := src / e.cfg.EndpointsPerRack
		dstRack := dst / e.cfg.EndpointsPerRack
		if srcRack != dstRack { // intra-rack traffic skips the aggregation tier
			racks := n / e.cfg.EndpointsPerRack
			c[2] = int32(e.rackBase + srcRack)
			c[3] = int32(e.rackBase + racks + dstRack)
		}
	}
	return c
}

func (e *engine) done() bool { return e.nAct == 0 && e.next >= len(e.ordered) }

// step advances the simulation by one event (the earlier of the next
// arrival and the next completion), then recomputes max-min rates.
func (e *engine) step() error {
	if err := e.advance(); err != nil {
		return err
	}
	e.allocate()
	return nil
}

// advance processes one event: it integrates flow progress up to the
// event, then admits the arriving flow or retires the completed one,
// updating the live membership counts, share cache and winner tree.
func (e *engine) advance() error {
	// Next arrival time, if any.
	arrival := math.Inf(1)
	if e.next < len(e.ordered) {
		arrival = e.ordered[e.next].Arrival.Seconds()
	}
	// Next completion time under current rates: an exact min-reduction
	// over the dense table (ties resolve to the lowest table index).
	completion := math.Inf(1)
	doneIdx := -1
	now := e.now
	for i := 0; i < e.nAct; i++ {
		r := e.rate[i]
		if r <= 0 {
			continue
		}
		if t := now + e.remaining[i]/r; t < completion {
			completion, doneIdx = t, i
		}
	}
	if math.IsInf(arrival, 1) && math.IsInf(completion, 1) {
		return fmt.Errorf("fluid: stalled with %d active flows", e.nAct)
	}

	if arrival <= completion {
		e.integrate(arrival - now)
		e.now = arrival
		fl := e.ordered[e.next]
		e.next++
		i := e.nAct
		e.nAct++
		e.remaining[i] = float64(fl.Bytes) * 8
		e.rate[i] = 0
		e.bytes[i] = fl.Bytes
		e.arrival[i] = fl.Arrival
		cs := e.constraintsFor(fl.Src, fl.Dst)
		e.cons[i] = cs
		for _, c := range cs {
			if c >= 0 {
				e.counts0[c]++
				e.tree0.set(c, e.caps0[c]/float64(e.counts0[c]))
				e.tree0.fix(c)
			}
		}
	} else {
		e.integrate(completion - now)
		e.now = completion
		e.res.Completed++
		e.deliveredB += int64(e.bytes[doneIdx])
		fct := simtime.Duration((completion-e.arrival[doneIdx].Seconds())*float64(simtime.Second)) + e.cfg.BaseRTT
		ms := fct.Seconds() * 1e3
		e.res.FCTAll.Add(ms)
		if e.bytes[doneIdx] < 100_000 {
			e.res.FCTShort.Add(ms)
		}
		if t := simtime.Time(completion * float64(simtime.Second)); t > e.res.SimTime {
			e.res.SimTime = t
		}
		// Swap-remove from the dense table.
		for _, c := range e.cons[doneIdx] {
			if c >= 0 {
				share := math.Inf(1)
				if e.counts0[c]--; e.counts0[c] > 0 {
					share = e.caps0[c] / float64(e.counts0[c])
				}
				e.tree0.set(c, share)
				e.tree0.fix(c)
			}
		}
		last := e.nAct - 1
		if doneIdx != last {
			e.remaining[doneIdx] = e.remaining[last]
			e.rate[doneIdx] = e.rate[last]
			e.cons[doneIdx] = e.cons[last]
			e.bytes[doneIdx] = e.bytes[last]
			e.arrival[doneIdx] = e.arrival[last]
		}
		e.nAct = last
	}
	return nil
}

// integrate advances every active flow by dt seconds at its current rate
// and accrues the goodput-window integral. Zero-rate flows are skipped:
// x - 0*dt == x and windowBits + 0 == windowBits exactly, so the skip is
// arithmetically identical to the reference implementation.
func (e *engine) integrate(dt float64) {
	if dt <= 0 {
		return
	}
	overlap := dt
	if e.now+dt > e.windowEnd {
		overlap = e.windowEnd - e.now
	}
	remaining, rate := e.remaining, e.rate
	if overlap > 0 {
		var bits float64
		for i := 0; i < e.nAct; i++ {
			r := rate[i]
			if r == 0 {
				continue
			}
			v := remaining[i] - r*dt
			if v < 0 {
				v = 0
			}
			remaining[i] = v
			bits += r * overlap
		}
		e.windowBits += bits
		return
	}
	for i := 0; i < e.nAct; i++ {
		r := rate[i]
		if r == 0 {
			continue
		}
		v := remaining[i] - r*dt
		if v < 0 {
			v = 0
		}
		remaining[i] = v
	}
}

// allocate computes max-min fair rates for the active flows by
// progressive filling. The resulting rate vector is the unique max-min
// solution and is independent of flow iteration order (within a round
// every frozen flow subtracts the same share, and float subtraction of a
// repeated constant commutes), so the dense-order iteration reproduces
// the reference map-order implementation bit for bit. Constraint
// membership counts and the winner tree are maintained incrementally on
// arrival/departure; here they are restored with memcopies instead of a
// full rebuild, and frozen flows are marked with an epoch stamp instead
// of a freshly allocated bool slice.
//
// A round's freezes only subtract from caps and counts; each constraint
// they touch has its share recomputed and its tree leaf updated once,
// after the round. That is exact: every freeze of a round subtracts the
// same bestShare, so the final caps and counts do not depend on freeze
// order; the share computed from them equals the last per-freeze value
// the reference computed; and no share is read before the next round's
// selection.
func (e *engine) allocate() {
	nCons := e.nCons
	copy(e.caps, e.caps0)
	copy(e.counts, e.counts0)
	copy(e.tree, e.tree0)
	e.epoch++
	epoch := e.epoch
	nAct := e.nAct
	// Build the CSR member lists: counts0 is exactly the per-constraint
	// membership count, so the offsets are its prefix sum, and a single
	// ascending pass over the table fills each list in ascending
	// dense-table order — the order the reference freeze scan visits.
	off := e.offsets
	off[0] = 0
	for c := 0; c < nCons; c++ {
		off[c+1] = off[c] + e.counts0[c]
		e.fill[c] = off[c]
	}
	for i := 0; i < nAct; i++ {
		e.rate[i] = 0
		cs := &e.cons[i]
		for _, c := range cs {
			if c >= 0 {
				e.members[e.fill[c]] = int32(i)
				e.fill[c]++
			}
		}
	}
	caps, counts := e.caps, e.counts
	tree, touched, members := e.tree, e.touched, e.members
	unfrozen := nAct
	for unfrozen > 0 {
		e.rounds++
		round := e.rounds
		// The tightest constraint is the tree's winner: its leaves cache
		// caps[c]/float64(counts[c]) — the identical expression the
		// reference evaluated inline, +Inf for empty constraints.
		b, bestShare := tree.root()
		if math.IsInf(bestShare, 1) {
			break // no constraint has members (defensive, as before)
		}
		// Freeze every unfrozen flow crossing the bottleneck. The member
		// list visits exactly the flows the reference full-table scan
		// would freeze, in the same ascending order. After the loop every
		// member is frozen, so counts[b] is 0 and b's share becomes +Inf:
		// each bottleneck is selected at most once.
		dirty := e.dirty[:0]
		before := unfrozen
		for k := off[b]; k < off[b+1]; k++ {
			i := int(members[k])
			if e.frozen[i] == epoch {
				continue
			}
			e.frozen[i] = epoch
			unfrozen--
			e.freezes++
			e.rate[i] = bestShare
			cs := &e.cons[i]
			for _, c := range cs {
				if c >= 0 {
					caps[c] -= bestShare
					if caps[c] < 0 {
						caps[c] = 0
					}
					counts[c]--
					if touched[c] != round {
						touched[c] = round
						dirty = append(dirty, c)
					}
				}
			}
		}
		if unfrozen == before {
			// A selected bottleneck always has an unfrozen member; a
			// round that freezes nothing would repeat forever.
			panic(fmt.Sprintf("fluid: invariant violated: round %d froze no flow at bottleneck constraint %d (share %g)",
				round, b, bestShare))
		}
		if unfrozen == 0 {
			break // the tree is not read again
		}
		for _, c := range dirty {
			share := math.Inf(1)
			if counts[c] > 0 {
				share = caps[c] / float64(counts[c])
			}
			tree.set(c, share)
		}
		// Update the tree: one walk per dirty leaf, or one bottom-up
		// pass when the batch's walks could cost more.
		if len(dirty)*e.depth > nCons {
			tree.rebuild()
		} else {
			for _, c := range dirty {
				tree.fix(c)
			}
		}
	}
}

// finish assembles the Results and publishes the process-wide counters.
func (e *engine) finish() *Results {
	res := e.res
	res.DeliveredBytes = e.deliveredB
	denom := float64(e.cfg.Endpoints) * float64(e.cfg.EndpointRate)
	if res.SimTime > 0 {
		res.MakespanGoodput = float64(e.deliveredB) * 8 / (res.SimTime.Seconds() * denom)
	}
	if e.windowEnd > 0 {
		res.GoodputNorm = e.windowBits / (e.windowEnd * denom)
	} else {
		res.GoodputNorm = res.MakespanGoodput
	}
	statFlows.Add(int64(res.Completed))
	statEvents.Add(e.events)
	// Telemetry flush: the event loop only bumps plain int64 fields
	// (rounds, freezes, events), keeping TestEventLoopZeroAlloc intact;
	// the registry is touched once per run, here.
	reg := telemetry.Default
	reg.Counter("sirius_fluid_runs_total").Inc()
	reg.Counter("sirius_fluid_events_total").Add(e.events)
	reg.Counter("sirius_fluid_bottleneck_rounds_total").Add(e.rounds)
	reg.Counter("sirius_fluid_freezes_total").Add(e.freezes)
	reg.Counter("sirius_fluid_flows_completed_total").Add(int64(res.Completed))
	return res
}
