package sched

import (
	"fmt"
	"slices"
)

// candSet holds per-source candidate destination lists for one planning
// epoch: each source's destinations with positive demand, ordered by
// demand descending (ties broken by lower index, so the order — and
// every plan built from it — is deterministic). Lists are capped at a
// fixed depth: demand-aware solvers probe a bounded number of
// candidates rather than scanning all n destinations per slot.
//
// Each candidate carries its remaining demand, and the set tracks the
// ascending list of sources with candidates. A planner empties a
// source's list once it finds every candidate served and then prunes
// it, so a plan's work after build is proportional to the sources with
// demand, not to n.
type candSet struct {
	n, depth int
	lists    [][]cand // per src: cells[src*depth:], demand-descending
	// cells backs the lists, depth per source. Cells past n*depth are
	// spare remaining-demand counters for a planner's own pairs
	// (NegotiaToR's held circuits that fell out of the candidates).
	cells  []cand
	active []int32 // ascending sources with a non-empty list
}

// cand is one candidate destination and its unserved demand.
type cand struct {
	dst, rem int32
}

// newCandSet sizes a candidate set for n sources of depth candidates
// each, with spare extra cells.
func newCandSet(n, depth, spare int) candSet {
	return candSet{
		n: n, depth: depth,
		lists:  make([][]cand, n),
		cells:  make([]cand, n*depth+spare),
		active: make([]int32, 0, n),
	}
}

// build fills the candidate lists and the active sources from demand
// (n×n row-major). Selection is a capped insertion sort: O(n·depth) per
// source worst case, cheap on sparse rows.
func (c *candSet) build(demand []int32) {
	n, depth := c.n, c.depth
	c.active = c.active[:0]
	for src := 0; src < n; src++ {
		list := c.cells[src*depth : src*depth : (src+1)*depth]
		row := demand[src*n : (src+1)*n]
		for dst := 0; dst < n; dst++ {
			// Demand rows are mostly zero: skip empty runs of eight
			// with one test.
			if dst&7 == 0 && dst+8 <= n {
				if w := (*[8]int32)(row[dst:]); w[0]|w[1]|w[2]|w[3]|w[4]|w[5]|w[6]|w[7] == 0 {
					dst += 7
					continue
				}
			}
			d := row[dst]
			if d <= 0 {
				continue
			}
			// Insert dst keeping the list demand-descending, dropping
			// the tail beyond depth.
			i := len(list)
			if i < depth {
				list = list[:i+1]
			} else if list[i-1].rem >= d {
				continue
			} else {
				i--
			}
			for i > 0 && list[i-1].rem < d {
				list[i] = list[i-1]
				i--
			}
			list[i] = cand{dst: int32(dst), rem: d}
		}
		c.lists[src] = list
		if len(list) > 0 {
			c.active = append(c.active, int32(src))
		}
	}
}

// prune drops sources with an empty list from active, keeping the rest
// in ascending order.
func (c *candSet) prune() {
	kept := c.active[:0]
	for _, src := range c.active {
		if len(c.lists[src]) > 0 {
			kept = append(kept, src)
		}
	}
	c.active = kept
}

// PULSE is a per-epoch demand-aware scheduler modeled on PULSE's
// distributed wavelength assignment: at every epoch boundary it reads
// the sampled VOQ demand matrix and builds one matching per
// (slot, uplink) plane with a bounded-iteration greedy heuristic —
// sources probe their top-demand candidates in a rotating order and
// claim the first free receiver, so each plane is maximal with respect
// to the probed candidates without any global optimization. Links with
// no demand stay dark (demand-aware fabrics light only requested
// wavelengths). The leading Reconfig slots of each epoch are dark,
// charging the scheduling/tuning latency of acting on fresh demand.
type PULSE struct {
	nodes   int
	uplinks int
	slots   int
	recfg   int
	probes  int // candidate probe bound per (src, slot, uplink)

	cand  candSet
	stamp []int32 // (dst*uplinks+u) → stamp of the plane that claimed the port
	cur   int32   // current plane's stamp: a port is claimed iff stamp == cur
}

// NewPULSE builds a PULSE scheduler. probeBound caps how many of its
// top-demand destinations a source probes per (slot, uplink); 0 means
// the default of 2×uplinks.
func NewPULSE(nodes, uplinks, slotsPerEpoch, reconfigSlots, probeBound int) (*PULSE, error) {
	switch {
	case nodes < 2:
		return nil, fmt.Errorf("sched: need >= 2 nodes")
	case uplinks < 1:
		return nil, fmt.Errorf("sched: need >= 1 uplink")
	case slotsPerEpoch < 1:
		return nil, fmt.Errorf("sched: need >= 1 slot per epoch")
	case reconfigSlots < 0 || reconfigSlots >= slotsPerEpoch:
		return nil, fmt.Errorf("sched: reconfig slots (%d) must be in [0, slots per epoch)", reconfigSlots)
	case probeBound < 0:
		return nil, fmt.Errorf("sched: probe bound must be >= 0")
	}
	if probeBound == 0 {
		probeBound = 2 * uplinks
	}
	return &PULSE{
		nodes: nodes, uplinks: uplinks, slots: slotsPerEpoch,
		recfg: reconfigSlots, probes: probeBound,
		cand:  newCandSet(nodes, probeBound, 0),
		stamp: make([]int32, nodes*uplinks),
	}, nil
}

// Nodes implements Scheduler.
func (p *PULSE) Nodes() int { return p.nodes }

// Uplinks implements Scheduler.
func (p *PULSE) Uplinks() int { return p.uplinks }

// SlotsPerEpoch implements Scheduler.
func (p *PULSE) SlotsPerEpoch() int { return p.slots }

// ConnectionsPerEpoch implements Scheduler: demand-aware assignment can
// in principle give a hot pair every serving slot of the epoch.
func (p *PULSE) ConnectionsPerEpoch() int { return p.slots - p.recfg }

// Plan implements Scheduler. The table starts dark; each (slot, uplink)
// plane then walks only the sources with candidate demand left, in the
// rotated order of the full source ring.
func (p *PULSE) Plan(epoch int64, demand []int32, dst []int32) int {
	n, up := p.nodes, p.uplinks
	fillDark(dst[:p.slots*n*up])
	c := &p.cand
	c.build(demand)
	reconfig := 0
	for slot := 0; slot < p.slots; slot++ {
		base := slot * n * up
		dark := slot < p.recfg
		for u := 0; u < up; u++ {
			p.cur++
			// Rotate the source start so no node is systematically
			// first in line; the offset is a pure function of
			// (epoch, slot, uplink) for replayability.
			start := int((epoch*int64(p.slots)+int64(slot))+int64(u)*7) % n
			if start < 0 {
				start += n
			}
			act := c.active
			first, _ := slices.BinarySearch(act, int32(start))
			drained := false
			for i := range act {
				j := first + i
				if j >= len(act) {
					j -= len(act)
				}
				src := int(act[j])
				list := c.lists[src]
				live := false
				for k := range list {
					cd := &list[k]
					if cd.rem <= 0 {
						continue
					}
					live = true
					port := int(cd.dst)*up + u
					if p.stamp[port] == p.cur {
						continue
					}
					p.stamp[port] = p.cur
					if dark {
						// The assignment exists but the plane is
						// still reconfiguring: a lost serving
						// opportunity, charged as overhead. Demand
						// stays unserved.
						reconfig++
					} else {
						dst[base+src*up+u] = cd.dst
						cd.rem--
					}
					break
				}
				if !live {
					// Every candidate is served: drop the source.
					c.lists[src] = list[:0]
					drained = true
				}
			}
			if drained {
				c.prune()
			}
		}
	}
	return reconfig
}

// Reset implements Scheduler: all per-epoch scratch is rebuilt by every
// Plan call, so only the claim stamp needs clearing.
func (p *PULSE) Reset() {
	p.cur = 0
	for i := range p.stamp {
		p.stamp[i] = 0
	}
}
