package fluid

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// This file keeps the previous max-min solver as a test-only reference:
// per-freeze share updates, and bottleneck selection by an indexed
// min-heap on fabrics of at least heapMinCons constraints or a linear
// scan on smaller ones. TestAllocateMatchesReference drives it in
// lockstep with the engine's allocate and compares the rates bit for bit
// after every event.

// heapMinCons is the constraint count from which the reference selects
// bottlenecks with its heap instead of its scan.
const heapMinCons = 128

// refSolver is the reference's selection state. shares0 is its copy of
// the engine's live share cache, and heap0/pos0 track it across events;
// refAllocate copies them into the shares and heap/pos scratch.
type refSolver struct {
	useHeap    bool
	shares0    []float64
	shares     []float64
	heap0      []int32 // heap of constraint ids
	pos0       []int32 // constraint id -> heap0 slot
	heap       []int32
	pos        []int32
	prevCounts []int32 // counts0 before the event, to find its constraints
}

func newRefSolver(e *engine) *refSolver {
	r := &refSolver{
		useHeap:    e.nCons >= heapMinCons,
		shares0:    leafShares(e.tree0),
		shares:     make([]float64, e.nCons),
		heap0:      make([]int32, e.nCons),
		pos0:       make([]int32, e.nCons),
		heap:       make([]int32, e.nCons),
		pos:        make([]int32, e.nCons),
		prevCounts: make([]int32, e.nCons),
	}
	// The identity permutation is a valid heap for all-equal keys with
	// the ascending-index tie-break.
	for i := range r.heap0 {
		r.heap0[i] = int32(i)
		r.pos0[i] = int32(i)
	}
	return r
}

// cLess orders constraint ids lexicographically by (key[c], c).
func cLess(a, b int32, key []float64) bool {
	ka, kb := key[a], key[b]
	return ka < kb || (ka == kb && a < b)
}

func siftUp(h, pos []int32, key []float64, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !cLess(h[i], h[p], key) {
			return
		}
		h[i], h[p] = h[p], h[i]
		pos[h[i]], pos[h[p]] = int32(i), int32(p)
		i = p
	}
}

func siftDown(h, pos []int32, key []float64, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && cLess(h[r], h[l], key) {
			m = r
		}
		if !cLess(h[m], h[i], key) {
			return
		}
		h[i], h[m] = h[m], h[i]
		pos[h[i]], pos[h[m]] = int32(i), int32(m)
		i = m
	}
}

// heapFix restores the heap invariant after key[c] changed.
func heapFix(h, pos []int32, key []float64, c int32) {
	i := int(pos[c])
	siftUp(h, pos, key, i)
	siftDown(h, pos, key, int(pos[c]))
}

// refStep is engine.step with the reference solver: the event itself,
// a heap fix for every constraint whose membership it changed, then the
// reference allocation.
func refStep(e *engine, r *refSolver) error {
	copy(r.prevCounts, e.counts0)
	if err := e.advance(); err != nil {
		return err
	}
	for c := range e.counts0 {
		if e.counts0[c] != r.prevCounts[c] {
			r.shares0[c] = math.Inf(1)
			if e.counts0[c] > 0 {
				r.shares0[c] = e.caps0[c] / float64(e.counts0[c])
			}
			if r.useHeap {
				heapFix(r.heap0, r.pos0, r.shares0, int32(c))
			}
		}
	}
	refAllocate(e, r)
	return nil
}

// refAllocate is the previous engine.allocate: every freeze recomputes
// the share of each constraint it touches and fixes the heap at once.
func refAllocate(e *engine, r *refSolver) {
	copy(e.caps, e.caps0)
	copy(e.counts, e.counts0)
	copy(r.shares, r.shares0)
	useHeap := r.useHeap
	if useHeap {
		copy(r.heap, r.heap0)
		copy(r.pos, r.pos0)
	}
	e.epoch++
	epoch := e.epoch
	nAct := e.nAct
	off := e.offsets
	off[0] = 0
	for c := 0; c < e.nCons; c++ {
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
	shares := r.shares
	heap, pos, members := r.heap, r.pos, e.members
	unfrozen := nAct
	for unfrozen > 0 {
		e.rounds++
		var b int32
		var bestShare float64
		if useHeap {
			b = heap[0]
			bestShare = shares[b]
		} else {
			b, bestShare = 0, shares[0]
			for c := 1; c < e.nCons; c++ {
				if s := shares[c]; s < bestShare {
					b, bestShare = int32(c), s
				}
			}
		}
		if math.IsInf(bestShare, 1) {
			break
		}
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
					e.caps[c] -= bestShare
					if e.caps[c] < 0 {
						e.caps[c] = 0
					}
					if e.counts[c]--; e.counts[c] > 0 {
						shares[c] = e.caps[c] / float64(e.counts[c])
					} else {
						shares[c] = math.Inf(1)
					}
					if useHeap {
						heapFix(heap, pos, shares, c)
					}
				}
			}
		}
	}
}

// leafShares returns the shares cached in a winner tree's leaves.
func leafShares(t winnerTree) []float64 {
	n := len(t) / 2
	s := make([]float64, n)
	for c := range s {
		s[c] = math.Float64frombits(t[n+c].key)
	}
	return s
}

// scanMin is the reference bottleneck selection: the lowest-index
// constraint with the strictly smallest share.
func scanMin(shares []float64) int32 {
	b := 0
	for c := 1; c < len(shares); c++ {
		if shares[c] < shares[b] {
			b = c
		}
	}
	return int32(b)
}

// equalBits reports whether a and b hold the same float64 bit patterns.
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// equivFlows generates a load-0.9 workload. With ties set, every flow
// has the same size and arrivals are rounded down to 2 µs, so flows
// arrive in bursts and many constraints share exactly equal shares.
func equivFlows(t *testing.T, n, flows int, seed uint64, ties bool) []workload.Flow {
	t.Helper()
	wcfg := workload.DefaultConfig(n, 400*simtime.Gbps, 0.9, flows)
	wcfg.MeanFlowBytes = 40e3
	wcfg.Seed = seed
	fl, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ties {
		q := 2 * simtime.Microsecond
		for i := range fl {
			fl[i].Bytes = 30_000
			fl[i].Arrival = simtime.Time(int64(fl[i].Arrival) / int64(q) * int64(q))
		}
	}
	return fl
}

// TestAllocateMatchesReference runs the engine and the reference solver
// side by side, event by event, and requires bit-identical rates, the
// same bottleneck-round and freeze totals, and a tree root equal to the
// scan's pick after every event.
func TestAllocateMatchesReference(t *testing.T) {
	type tc struct {
		n, epr, oversub, flows int
		ties                   bool
	}
	var cases []tc
	for _, n := range []int{2, 3, 17, 32, 64, 65, 128, 512} {
		flows := 1000
		if n >= 512 {
			flows = 800
		}
		cases = append(cases, tc{n: n, oversub: 1, flows: flows})
	}
	cases = append(cases,
		tc{n: 2, epr: 2, oversub: 3, flows: 600},
		tc{n: 16, epr: 2, oversub: 3, flows: 1000},
		tc{n: 32, epr: 8, oversub: 3, flows: 1000},
		tc{n: 64, epr: 8, oversub: 3, flows: 1000},
		tc{n: 64, epr: 2, oversub: 3, flows: 1000},
		tc{n: 128, epr: 16, oversub: 3, flows: 1000},
		tc{n: 512, epr: 16, oversub: 3, flows: 800},
		// All-equal capacities (rack capacity 3·R/3 = R) and equal-size
		// bursty flows: exact share ties everywhere.
		tc{n: 48, epr: 3, oversub: 3, flows: 1000, ties: true},
		tc{n: 65, oversub: 1, flows: 1000, ties: true},
		tc{n: 128, oversub: 1, flows: 1000, ties: true},
	)
	for k, c := range cases {
		name := fmt.Sprintf("n%d/ideal", c.n)
		if c.oversub > 1 {
			name = fmt.Sprintf("n%d/osub%d_epr%d", c.n, c.oversub, c.epr)
		}
		if c.ties {
			name += "/ties"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Endpoints: c.n, EndpointRate: 400 * simtime.Gbps,
				EndpointsPerRack: c.epr, Oversub: c.oversub, BaseRTT: simtime.Microsecond}
			flows := equivFlows(t, c.n, c.flows, uint64(31+k), c.ties)
			got, err := newEngine(cfg, flows)
			if err != nil {
				t.Fatal(err)
			}
			want, err := newEngine(cfg, flows)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefSolver(want)
			for ev := 0; !want.done(); ev++ {
				if got.done() {
					t.Fatalf("event %d: engine drained before the reference", ev)
				}
				if err := got.step(); err != nil {
					t.Fatal(err)
				}
				if err := refStep(want, ref); err != nil {
					t.Fatal(err)
				}
				if got.nAct != want.nAct {
					t.Fatalf("event %d: %d active flows, reference %d", ev, got.nAct, want.nAct)
				}
				for i := 0; i < got.nAct; i++ {
					if math.Float64bits(got.rate[i]) != math.Float64bits(want.rate[i]) {
						t.Fatalf("event %d: flow slot %d rate %v, reference %v",
							ev, i, got.rate[i], want.rate[i])
					}
				}
				if got.rounds != want.rounds || got.freezes != want.freezes {
					t.Fatalf("event %d: %d rounds / %d freezes, reference %d / %d",
						ev, got.rounds, got.freezes, want.rounds, want.freezes)
				}
				if got, want := leafShares(got.tree0), ref.shares0; !equalBits(got, want) {
					t.Fatalf("event %d: live shares %v, reference %v", ev, got, want)
				}
				if root, _ := got.tree0.root(); root != scanMin(ref.shares0) {
					t.Fatalf("event %d: live tree root %d, scan picks %d", ev, root, scanMin(ref.shares0))
				}
			}
			if !got.done() {
				t.Fatal("reference drained before the engine")
			}
		})
	}
}

// TestAllocateNoProgressPanics corrupts one winner-tree leaf so that the
// selected bottleneck is a constraint without members: allocate must
// report the broken invariant at once instead of repeating the round
// forever.
func TestAllocateNoProgressPanics(t *testing.T) {
	cfg := Config{Endpoints: 16, EndpointRate: 400 * simtime.Gbps, Oversub: 1, BaseRTT: simtime.Microsecond}
	e, err := newEngine(cfg, equivFlows(t, 16, 200, 5, false))
	if err != nil {
		t.Fatal(err)
	}
	for e.nAct < 2 {
		if err := e.step(); err != nil {
			t.Fatal(err)
		}
	}
	empty := int32(-1)
	for c := range e.counts0 {
		if e.counts0[c] == 0 {
			empty = int32(c)
			break
		}
	}
	if empty < 0 {
		t.Fatal("every constraint has members; shrink the active set")
	}
	e.tree0.set(empty, 0)
	e.tree0.fix(empty)
	defer func() {
		msg, _ := recover().(string)
		want := fmt.Sprintf("froze no flow at bottleneck constraint %d (share 0)", empty)
		if !strings.Contains(msg, want) {
			t.Fatalf("allocate panicked with %q, want a message containing %q", msg, want)
		}
	}()
	e.allocate()
}
