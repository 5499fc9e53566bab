package core

import "math/bits"

// The simulator keeps n*n destination, VOQ and forward queues, so the
// per-queue header dominates its set-up cost and its footprint at large
// n. A fifo is therefore a 16-byte, pointer-free header: the n*n header
// arrays are allocated once per run, never scanned by the garbage
// collector, and the elements live in arena chunks addressed by a 32-bit
// location.

const (
	// chunkShift splits a segment location into chunk<<chunkShift |
	// offset. A standard chunk holds arenaChunk elements.
	chunkShift = 14
	arenaChunk = 1 << chunkShift
	offMask    = arenaChunk - 1
	// maxChunks is the number of chunk indices a 32-bit location holds.
	maxChunks = 1 << (32 - chunkShift)
	// minClass is the log2 capacity of the smallest segment (8 elements).
	minClass = 3
)

// arena hands out power-of-two fifo segments carved from fixed chunks and
// recycles them through per-size-class free lists of locations. A segment
// released by one queue (on growth, or when a large queue drains) is
// reused verbatim by the next queue that needs that size class.
//
// Without recycling every queue would retain its own high-water-mark
// segment and the footprint would be the *sum* of high-water marks; with
// it the footprint is the *peak concurrent* cell population, and — the
// property the steady-state zero-allocation contract relies on — once
// every size class has seen its peak, growth and drain cycles perform no
// heap allocations at all. Chunks are never reallocated or copied: a
// segment larger than a chunk gets a chunk of its own, so no stale copy
// of a grown slab is ever stranded.
type arena[T int32 | int64] struct {
	chunks [][]T        // element storage, indexed by loc>>chunkShift
	free   [32][]uint32 // free segment locations, indexed by log2(cap)
	bump   uint32       // next unused location in the bump chunk
	end    uint32       // end of the bump chunk (bump == end: none left)
}

// get returns the location of an unused segment of 1<<c elements,
// reusing a free one when the class has any.
func (a *arena[T]) get(c uint8) uint32 {
	if free := a.free[c]; len(free) > 0 {
		loc := free[len(free)-1]
		a.free[c] = free[:len(free)-1]
		return loc
	}
	size := uint32(1) << c
	if size > arenaChunk {
		return a.newChunk(int(size))
	}
	if a.end-a.bump < size {
		// Bank the rest of the old chunk as free segments (every bump
		// segment is a multiple of the minimum, so the rest splits into
		// power-of-two pieces), then start a new chunk.
		for rest := a.end - a.bump; rest >= 1<<minClass; {
			pc := uint8(bits.Len32(rest) - 1)
			a.free[pc] = append(a.free[pc], a.bump)
			a.bump += 1 << pc
			rest -= 1 << pc
		}
		a.bump = a.newChunk(arenaChunk)
		a.end = a.bump + arenaChunk
	}
	loc := a.bump
	a.bump += size
	return loc
}

// newChunk appends a zeroed chunk of size elements and returns the
// location of its first element.
func (a *arena[T]) newChunk(size int) uint32 {
	if len(a.chunks) == maxChunks {
		panic("core: fifo arena exhausted its chunk index space")
	}
	a.chunks = append(a.chunks, make([]T, size))
	return uint32(len(a.chunks)-1) << chunkShift
}

// put releases the segment of 1<<c elements at loc for reuse.
func (a *arena[T]) put(loc uint32, c uint8) {
	a.free[c] = append(a.free[c], loc)
}

// seg returns the storage of the segment of 1<<c elements at loc.
func (a *arena[T]) seg(loc uint32, c uint8) []T {
	off := loc & offMask
	return a.chunks[loc>>chunkShift][off : off+1<<c]
}

// releaseCap is the segment capacity above which a fifo returns its
// segment to the arena when it drains; smaller queues keep theirs so
// tightly oscillating queues do no free-list traffic at all.
const releaseCap = 256

// fifo is a FIFO ring over one power-of-two arena segment, with O(1)
// push/pop and amortized O(1) growth. The zero value is an empty queue
// without a segment. A full ring moves to a segment twice its size and
// releases the old one; draining a queue larger than releaseCap releases
// its segment for other queues to reuse. Element types are the two the
// simulator uses: int32 for flow/destination ids and int64 for packed
// (flow, seq) cell references.
type fifo[T int32 | int64] struct {
	loc  uint32 // segment location in the arena
	head uint32 // ring index of the oldest element
	n    uint32 // elements queued
	cls  uint8  // log2 of the segment capacity; 0 = no segment
}

func (q *fifo[T]) push(v T, a *arena[T]) {
	if q.cls == 0 || q.n == 1<<q.cls {
		q.grow(a)
	}
	i := q.loc&offMask + (q.head+q.n)&(1<<q.cls-1)
	a.chunks[q.loc>>chunkShift][i] = v
	q.n++
}

// grow gives a queue without a segment one of the minimum size, and moves
// a full ring to a segment of twice the capacity, unrolled so the oldest
// element lands at index 0.
func (q *fifo[T]) grow(a *arena[T]) {
	if q.cls == 0 {
		q.loc, q.head, q.cls = a.get(minClass), 0, minClass
		return
	}
	c := q.cls + 1
	loc := a.get(c)
	old, grown := a.seg(q.loc, q.cls), a.seg(loc, c)
	k := copy(grown, old[q.head:])
	copy(grown[k:], old[:q.head])
	a.put(q.loc, q.cls)
	q.loc, q.head, q.cls = loc, 0, c
}

func (q *fifo[T]) pop(a *arena[T]) T {
	if q.n == 0 {
		panic("core: pop from empty fifo")
	}
	v := a.chunks[q.loc>>chunkShift][q.loc&offMask+q.head]
	q.head = (q.head + 1) & (1<<q.cls - 1)
	q.n--
	if q.n == 0 && 1<<q.cls > releaseCap {
		// A drained large queue hands its segment back.
		a.put(q.loc, q.cls)
		q.loc, q.cls = 0, 0
	}
	return v
}

func (q *fifo[T]) len() int { return int(q.n) }

func (q *fifo[T]) empty() bool { return q.n == 0 }

// cellRef packs a flow id and an intra-flow sequence number into one
// queue entry.
func cellRef(flow int32, seq int32) int64 { return int64(flow)<<32 | int64(uint32(seq)) }

func unpackRef(ref int64) (flow int32, seq int32) {
	return int32(ref >> 32), int32(uint32(ref))
}
