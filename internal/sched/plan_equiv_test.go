package sched

import (
	"fmt"
	"slices"
	"testing"

	"sirius/internal/rng"
)

// The reference planners below are the straightforward slot-by-slot
// Plan bodies the optimized RotorRR, PULSE and NegotiaToR must match
// exactly: every (slot, uplink, source) is visited, remaining demand is
// a dense n×n copy, and dst is written entry by entry. The differential
// tests drive both over the same epoch/demand sequences and require
// identical dst tables and return values.

// refCandSet is the reference candidate-list builder: per source, the
// top-depth destinations by demand (descending, ties to lower index).
type refCandSet struct {
	lists [][]int32
	buf   []int32
}

func (c *refCandSet) build(n, depth int, demand []int32) {
	if cap(c.buf) < n*depth {
		c.buf = make([]int32, n*depth)
	}
	if c.lists == nil {
		c.lists = make([][]int32, n)
	}
	for src := 0; src < n; src++ {
		list := c.buf[src*depth : src*depth : (src+1)*depth]
		row := demand[src*n : (src+1)*n]
		for dst, d := range row {
			if d <= 0 {
				continue
			}
			i := len(list)
			if i < depth {
				list = list[:i+1]
			} else if row[list[i-1]] >= d {
				continue
			} else {
				i--
			}
			for i > 0 && row[list[i-1]] < d {
				list[i] = list[i-1]
				i--
			}
			list[i] = int32(dst)
		}
		c.lists[src] = list
	}
}

type refRotorRR struct{ r *RotorRR }

func (x *refRotorRR) Plan(epoch int64, demand []int32, dst []int32) int {
	r := x.r
	n, up := r.nodes, r.uplinks
	for u := 0; u < up; u++ {
		m := r.shift(epoch, u)
		for slot := 0; slot < r.slots; slot++ {
			base := slot * n * up
			if slot < r.recfg {
				for node := 0; node < n; node++ {
					dst[base+node*up+u] = -1
				}
				continue
			}
			for node := 0; node < n; node++ {
				dst[base+node*up+u] = int32((node + m) % n)
			}
		}
	}
	return r.recfg * n * up
}

type refPULSE struct {
	nodes, uplinks, slots, recfg, probes int

	rem   []int32
	cand  refCandSet
	stamp []int32
	cur   int32
}

func newRefPULSE(nodes, uplinks, slots, recfg, probes int) *refPULSE {
	if probes == 0 {
		probes = 2 * uplinks
	}
	return &refPULSE{
		nodes: nodes, uplinks: uplinks, slots: slots, recfg: recfg, probes: probes,
		rem:   make([]int32, nodes*nodes),
		stamp: make([]int32, nodes*uplinks),
	}
}

func (p *refPULSE) Plan(epoch int64, demand []int32, dst []int32) int {
	n, up := p.nodes, p.uplinks
	copy(p.rem, demand)
	p.cand.build(n, p.probes, demand)
	reconfig := 0
	for slot := 0; slot < p.slots; slot++ {
		base := slot * n * up
		dark := slot < p.recfg
		for u := 0; u < up; u++ {
			p.cur++
			start := int((epoch*int64(p.slots)+int64(slot))+int64(u)*7) % n
			if start < 0 {
				start += n
			}
			for i := 0; i < n; i++ {
				src := start + i
				if src >= n {
					src -= n
				}
				e := base + src*up + u
				dst[e] = -1
				for _, d := range p.cand.lists[src] {
					if p.rem[src*n+int(d)] <= 0 {
						continue
					}
					port := int(d)*up + u
					if p.stamp[port] == p.cur {
						continue
					}
					p.stamp[port] = p.cur
					if dark {
						reconfig++
					} else {
						dst[e] = d
						p.rem[src*n+int(d)]--
					}
					break
				}
			}
		}
	}
	return reconfig
}

type refNegotiaToR struct {
	nodes, uplinks, slots, recfg, probes int

	prev     []int32
	havePrev bool
	rem      []int32
	cand     refCandSet
	cur      []int32
	darkLeft []int32
	rxBusy   []int32
}

func newRefNegotiaToR(nodes, uplinks, slots, recfg, probes int) *refNegotiaToR {
	if probes == 0 {
		probes = 2 * uplinks
	}
	g := &refNegotiaToR{
		nodes: nodes, uplinks: uplinks, slots: slots, recfg: recfg, probes: probes,
		prev:     make([]int32, nodes*nodes),
		rem:      make([]int32, nodes*nodes),
		cur:      make([]int32, nodes*uplinks),
		darkLeft: make([]int32, nodes*uplinks),
		rxBusy:   make([]int32, nodes*uplinks),
	}
	for i := range g.cur {
		g.cur[i] = -1
		g.rxBusy[i] = -1
	}
	return g
}

func (g *refNegotiaToR) Plan(epoch int64, demand []int32, dst []int32) int {
	n, up := g.nodes, g.uplinks
	reconfig := 0
	if !g.havePrev {
		for i := range dst[:g.slots*n*up] {
			dst[i] = -1
		}
		copy(g.prev, demand)
		g.havePrev = true
		return 0
	}
	copy(g.rem, g.prev)
	g.cand.build(n, g.probes, g.prev)
	for slot := 0; slot < g.slots; slot++ {
		base := slot * n * up
		for src := 0; src < n; src++ {
			for u := 0; u < up; u++ {
				link := src*up + u
				e := base + link
				dst[e] = -1
				d := g.cur[link]
				if d < 0 {
					continue
				}
				if g.rem[src*n+int(d)] <= 0 {
					g.rxBusy[int(d)*up+u] = -1
					g.cur[link] = -1
					g.darkLeft[link] = 0
					continue
				}
				if g.darkLeft[link] > 0 {
					g.darkLeft[link]--
					reconfig++
					continue
				}
				dst[e] = d
				g.rem[src*n+int(d)]--
			}
		}
		start := int((epoch*int64(g.slots) + int64(slot)) % int64(n))
		if start < 0 {
			start += n
		}
		for i := 0; i < n; i++ {
			src := start + i
			if src >= n {
				src -= n
			}
			for u := 0; u < up; u++ {
				link := src*up + u
				if g.cur[link] >= 0 {
					continue
				}
				for _, d := range g.cand.lists[src] {
					if g.rem[src*n+int(d)] <= 0 || g.rxBusy[int(d)*up+u] >= 0 {
						continue
					}
					g.cur[link] = d
					g.rxBusy[int(d)*up+u] = int32(src)
					g.darkLeft[link] = int32(g.recfg)
					if g.recfg > 0 {
						g.darkLeft[link]--
						reconfig++
					} else {
						dst[base+link] = d
						g.rem[src*n+int(d)]--
					}
					break
				}
			}
		}
	}
	copy(g.prev, demand)
	return reconfig
}

// planFunc is the Plan method shared by the planners and their references.
type planFunc func(epoch int64, demand []int32, dst []int32) int

// planPair is one optimized planner alongside its reference, built with
// identical parameters and fresh state.
type planPair struct {
	name     string
	got, ref planFunc
}

func newPlanPairs(t testing.TB, n, up, slots, recfg, probes int) []planPair {
	t.Helper()
	r, err := NewRotorRR(n, up, slots, recfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPULSE(n, up, slots, recfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewNegotiaToR(n, up, slots, recfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	return []planPair{
		{"rotorrr", r.Plan, (&refRotorRR{r}).Plan},
		{"pulse", p.Plan, newRefPULSE(n, up, slots, recfg, probes).Plan},
		{"negotiator", g.Plan, newRefNegotiaToR(n, up, slots, recfg, probes).Plan},
	}
}

// poison is written over every dst entry before each Plan. It is not
// dark and not a node index any planner can produce, so an entry the
// optimized planner leaves unwritten shows up as a difference.
const poison = 1<<30 + 7

// comparePlan runs one epoch through both sides of pp and fails on any
// difference in the returned reconfig count or the dst table.
func comparePlan(t testing.TB, pp planPair, epoch int64, demand, got, want []int32, where string) {
	t.Helper()
	for i := range got {
		got[i], want[i] = poison, poison
	}
	rcGot := pp.got(epoch, demand, got)
	rcWant := pp.ref(epoch, demand, want)
	if rcGot != rcWant {
		t.Fatalf("%s %s epoch %d: reconfig %d, reference %d", pp.name, where, epoch, rcGot, rcWant)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%s %s epoch %d: dst[%d] = %d, reference %d", pp.name, where, epoch, i, got[i], want[i])
	}
}

func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// demandPattern fills demand (n×n; the caller zeroes the diagonal) for
// one epoch.
type demandPattern func(r *rng.RNG, n int, demand []int32)

func uniformDemand(r *rng.RNG, n int, demand []int32) {
	for i := range demand {
		demand[i] = int32(r.Intn(8))
	}
}

// hotspotDemand puts a few hot sources with heavy, skewed rows over a
// sparse background: held circuits outlive their pair's place in the
// top-depth candidates, and sources drain mid-epoch.
func hotspotDemand(r *rng.RNG, n int, demand []int32) {
	clear(demand)
	for k := 0; k < 1+n/8; k++ {
		src := r.Intn(n)
		for j := 0; j < 1+r.Intn(n); j++ {
			demand[src*n+r.Intn(n)] = int32(1 + r.Intn(40))
		}
	}
	for k := 0; k < n/2; k++ {
		demand[r.Intn(n*n)] = int32(1 + r.Intn(3))
	}
}

func zeroDemand(r *rng.RNG, n int, demand []int32) { clear(demand) }

// mixedDemand picks another pattern every epoch: circuits established
// under one pattern are held, drained and released under another.
func mixedDemand(r *rng.RNG, n int, demand []int32) {
	[]demandPattern{uniformDemand, hotspotDemand, zeroDemand}[r.Intn(3)](r, n, demand)
}

var demandPatterns = []struct {
	name string
	fill demandPattern
}{
	{"uniform", uniformDemand},
	{"hotspot", hotspotDemand},
	{"zero", zeroDemand},
	{"mixed", mixedDemand},
}

func TestPlannersMatchReference(t *testing.T) {
	type geom struct{ n, up, slots, probes int }
	var geoms []geom
	for _, n := range []int{2, 3, 17, 64} {
		geoms = append(geoms,
			geom{n, 1, 1, 0},
			geom{n, 2, 4, 0},
			geom{n, 3, 5, 1},
			geom{n, 4, 8, 0},
			geom{n, 65, 2, 0}, // uplink masks wider than one word
		)
	}
	for _, gm := range geoms {
		recfgs := []int{0, 1, gm.slots - 1}
		slices.Sort(recfgs)
		recfgs = slices.Compact(recfgs)
		for _, recfg := range recfgs {
			if recfg >= gm.slots {
				continue
			}
			for _, pat := range demandPatterns {
				where := fmt.Sprintf("n=%d up=%d slots=%d recfg=%d probes=%d %s",
					gm.n, gm.up, gm.slots, recfg, gm.probes, pat.name)
				r := rng.New(uint64(gm.n*1000 + gm.up*100 + gm.slots*10 + recfg))
				demand := make([]int32, gm.n*gm.n)
				got := make([]int32, gm.slots*gm.n*gm.up)
				want := make([]int32, len(got))
				for _, pp := range newPlanPairs(t, gm.n, gm.up, gm.slots, recfg, gm.probes) {
					for epoch := int64(0); epoch < 8; epoch++ {
						pat.fill(r, gm.n, demand)
						for i := 0; i < gm.n; i++ {
							demand[i*gm.n+i] = 0
						}
						comparePlan(t, pp, epoch, demand, got, want, where)
					}
				}
			}
		}
	}
}
