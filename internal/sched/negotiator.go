package sched

import (
	"fmt"
	"math/bits"
	"slices"
)

// NegotiaToR models on-demand request/notify reconfiguration: sources
// request circuits for queued traffic, the fabric notifies them of
// granted matchings, and data flows only after the exchange completes.
// Two costs are charged, following the paper's accounting:
//
//   - Control latency: Plan sees the demand matrix one epoch late
//     (requests ride the control plane to the arbiter and notifications
//     ride back). The very first epoch is entirely dark — no requests
//     have arrived yet.
//   - Reconfiguration: a newly established (src, uplink) → dst circuit
//     is dark for Reconfig slots before serving. Circuits are held
//     while requested demand remains and released when it drains (the
//     rotorsim request_matching/release_matching discipline), so
//     long-lived hot pairs amortize the penalty and churny traffic
//     pays it repeatedly.
//
// Receiver ports follow the rotor convention: circuit (src, u) → dst
// occupies receive port u of dst exclusively until released.
type NegotiaToR struct {
	nodes   int
	uplinks int
	slots   int
	recfg   int
	probes  int

	// Requests in flight: the candidates and remaining demand the next
	// Plan grants from, recorded from the demand of the previous one.
	havePrev bool
	cand     candSet
	mark     []int32 // per dst: source whose pair cell pos[dst] holds
	pos      []int32 // per dst: cand.cells index of pair (mark[dst], dst)

	circ  []circuit // per link (src*uplinks+u)
	held  bitset    // links with a circuit
	nHeld []int32   // per src: links with a circuit
	// rxFree holds words uint64s per destination: bit u of dst's row is
	// set while dst's receive port u is free.
	rxFree bitset
	words  int
	fit    bitset // scratch: uplinks where a candidate's port is free
}

// circuit is one link's held connection.
type circuit struct {
	dst  int32 // held destination, -1 if the link is idle
	port int32 // rxFree bit of the receive port it occupies
	cell int32 // cand.cells index of the pair's remaining demand
	dark int32 // reconfiguration slots still owed
}

// bitset is a dense set of small non-negative integers.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) unset(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// NewNegotiaToR builds a NegotiaToR scheduler. probeBound caps the
// candidate probes per circuit establishment; 0 means 2×uplinks.
func NewNegotiaToR(nodes, uplinks, slotsPerEpoch, reconfigSlots, probeBound int) (*NegotiaToR, error) {
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
	words := (uplinks + 63) / 64
	ng := &NegotiaToR{
		nodes: nodes, uplinks: uplinks, slots: slotsPerEpoch,
		recfg: reconfigSlots, probes: probeBound,
		cand:   newCandSet(nodes, probeBound, nodes*uplinks),
		mark:   make([]int32, nodes),
		pos:    make([]int32, nodes),
		circ:   make([]circuit, nodes*uplinks),
		held:   make(bitset, (nodes*uplinks+63)/64),
		nHeld:  make([]int32, nodes),
		rxFree: make(bitset, nodes*words),
		words:  words,
		fit:    make(bitset, words),
	}
	ng.Reset()
	return ng, nil
}

// Nodes implements Scheduler.
func (g *NegotiaToR) Nodes() int { return g.nodes }

// Uplinks implements Scheduler.
func (g *NegotiaToR) Uplinks() int { return g.uplinks }

// SlotsPerEpoch implements Scheduler.
func (g *NegotiaToR) SlotsPerEpoch() int { return g.slots }

// ConnectionsPerEpoch implements Scheduler: a held circuit can serve a
// pair every slot of the epoch.
func (g *NegotiaToR) ConnectionsPerEpoch() int { return g.slots }

// Plan implements Scheduler. The table starts dark; each slot then
// visits only the held circuits and the sources with requested demand
// left.
func (g *NegotiaToR) Plan(epoch int64, demand []int32, dst []int32) int {
	n, up := g.nodes, g.uplinks
	fillDark(dst[:g.slots*n*up])
	if !g.havePrev {
		// Requests are still in flight: nothing is granted yet.
		g.request(demand)
		g.havePrev = true
		return 0
	}
	c := &g.cand
	cells, circ, held, nHeld := c.cells, g.circ, g.held, g.nHeld
	rxFree, words, fit := g.rxFree, g.words, g.fit
	reconfig := 0
	for slot := 0; slot < g.slots; slot++ {
		base := slot * n * up
		drained := false
		// Serve or release held circuits first, in ascending link
		// order, then establish new ones — a fixed order shared by
		// every replay.
		for w, word := range held {
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				word &= word - 1
				link := w<<6 + bit
				cc := &circ[link]
				if cells[cc.cell].rem <= 0 {
					// Requested demand drained: release the circuit.
					rxFree.set(int(cc.port))
					*cc = circuit{dst: -1}
					held[w] &^= 1 << uint(bit)
					nHeld[link/up]--
					continue
				}
				if cc.dark > 0 {
					cc.dark--
					reconfig++
					continue
				}
				dst[base+link] = cc.dst
				cells[cc.cell].rem--
			}
		}
		// Establish new circuits on idle links, rotating the source
		// start for fairness (pure function of epoch and slot).
		start := int((epoch*int64(g.slots) + int64(slot)) % int64(n))
		if start < 0 {
			start += n
		}
		act := c.active
		first, _ := slices.BinarySearch(act, int32(start))
		for i := range act {
			j := first + i
			if j >= len(act) {
				j -= len(act)
			}
			src := int(act[j])
			if int(nHeld[src]) == up {
				continue // no idle link
			}
			// Only uplinks where some live candidate's receive port
			// is free can establish. Ports are only taken below, so
			// this superset, computed once, skips no establishment.
			list := c.lists[src]
			live := false
			for w := range fit {
				var m uint64
				for _, cd := range list {
					if cd.rem > 0 {
						live = true
						m |= rxFree[int(cd.dst)*words+w]
					}
				}
				fit[w] = m
			}
			if !live {
				// Every candidate is served: drop the source.
				c.lists[src] = list[:0]
				drained = true
				continue
			}
			off := src * g.probes
			for w, word := range fit {
				for word != 0 {
					u := w<<6 + bits.TrailingZeros64(word)
					word &= word - 1
					link := src*up + u
					cc := &circ[link]
					if cc.dst >= 0 {
						continue
					}
					for k := range list {
						cd := &list[k]
						port := int(cd.dst)*words<<6 + u
						if cd.rem <= 0 || !rxFree.has(port) {
							continue
						}
						*cc = circuit{dst: cd.dst, port: int32(port), cell: int32(off + k), dark: int32(g.recfg)}
						rxFree.unset(port)
						held.set(link)
						nHeld[src]++
						if g.recfg > 0 {
							// The establishment slot itself is the
							// first reconfiguration slot.
							cc.dark--
							reconfig++
						} else {
							dst[base+link] = cd.dst
							cd.rem--
						}
						break
					}
				}
			}
		}
		if drained {
			c.prune()
		}
	}
	g.request(demand)
	return reconfig
}

// request records demand as the requests the next Plan grants from:
// the candidate lists, and for every held circuit the cell holding its
// pair's remaining demand. A held pair that is among its source's
// candidates shares the candidate's cell; one that fell out of them
// gets a spare cell, shared by every uplink of the source holding the
// same destination.
func (g *NegotiaToR) request(demand []int32) {
	c := &g.cand
	c.build(demand)
	n, up, depth := g.nodes, g.uplinks, g.probes
	spare := n * depth
	for i := range g.mark {
		g.mark[i] = -1
	}
	src, srcEnd := 0, 0 // the source owning links [srcEnd-up, srcEnd)
	for w, word := range g.held {
		for word != 0 {
			link := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if link >= srcEnd {
				src = link / up
				srcEnd = (src + 1) * up
				for k, cd := range c.lists[src] {
					g.mark[cd.dst] = int32(src)
					g.pos[cd.dst] = int32(src*depth + k)
				}
			}
			cc := &g.circ[link]
			if g.mark[cc.dst] != int32(src) {
				g.mark[cc.dst] = int32(src)
				g.pos[cc.dst] = int32(spare)
				c.cells[spare].rem = demand[src*n+int(cc.dst)]
				spare++
			}
			cc.cell = g.pos[cc.dst]
		}
	}
}

// Reset implements Scheduler: drop held circuits and in-flight requests.
func (g *NegotiaToR) Reset() {
	g.havePrev = false
	for i := range g.circ {
		g.circ[i] = circuit{dst: -1}
	}
	clear(g.held)
	clear(g.nHeld)
	clear(g.rxFree)
	for d := 0; d < g.nodes; d++ {
		for u := 0; u < g.uplinks; u++ {
			g.rxFree.set(d*g.words<<6 + u)
		}
	}
}
