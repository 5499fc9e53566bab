package core

import (
	"reflect"
	"sort"
	"testing"
)

// TestFifoWrapAfterGrow fills a ring whose live elements wrap around the
// end of its segment, grows it, and keeps wrapping in the grown segment:
// the order must survive both the unrolling copy and the wraparound.
func TestFifoWrapAfterGrow(t *testing.T) {
	var a arena[int32]
	var q fifo[int32]
	next, want := int32(0), int32(0)
	push := func(k int) {
		for ; k > 0; k-- {
			q.push(next, &a)
			next++
		}
	}
	pop := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			if got := q.pop(&a); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}
	push(8)
	pop(5)
	push(5) // the ring is full and wraps: head 5, elements at 5..7, 0..4
	if q.cls != minClass || q.head != 5 || q.len() != 8 {
		t.Fatalf("before grow: cls %d head %d len %d, want %d 5 8", q.cls, q.head, q.len(), minClass)
	}
	push(1) // grows from a wrapped ring
	if q.cls != minClass+1 || q.head != 0 || q.len() != 9 {
		t.Fatalf("after grow: cls %d head %d len %d, want %d 0 9", q.cls, q.head, q.len(), minClass+1)
	}
	for i := 0; i < 10; i++ { // wrap the grown ring several times
		pop(5 + i%3)
		push(5 + i%3)
	}
	pop(q.len())
	if !q.empty() || next != want {
		t.Fatalf("drained with %d queued, pushed %d popped %d", q.len(), next, want)
	}
}

// TestFifoLargerThanChunk grows a queue past one chunk: its segment gets
// a chunk of its own, keeps FIFO order across wraparound, and is reused
// by the next queue of that size once the first drains.
func TestFifoLargerThanChunk(t *testing.T) {
	var a arena[int64]
	var q fifo[int64]
	const total = 2*arenaChunk + 3
	var next, want int64
	for ; next < total; next++ {
		q.push(next, &a)
	}
	if q.cls != chunkShift+2 {
		t.Fatalf("segment class %d, want %d", q.cls, chunkShift+2)
	}
	if q.loc&offMask != 0 || len(a.chunks[q.loc>>chunkShift]) != 1<<q.cls {
		t.Fatalf("large segment at %#x in a chunk of %d elements, want its own chunk of %d",
			q.loc, len(a.chunks[q.loc>>chunkShift]), 1<<q.cls)
	}
	for round := 0; round < 3; round++ { // wrap around the large segment
		for i := 0; i < arenaChunk+7; i++ {
			if got := q.pop(&a); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
		for i := 0; i < arenaChunk+7; i++ {
			q.push(next, &a)
			next++
		}
	}
	for !q.empty() {
		if got := q.pop(&a); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
		want++
	}
	if q.cls != 0 {
		t.Fatal("a drained large queue kept its segment")
	}
	chunks := len(a.chunks)
	var r fifo[int64]
	for i := int64(0); i < total; i++ {
		r.push(i, &a)
	}
	if len(a.chunks) != chunks {
		t.Errorf("regrowing to the same size added %d chunks, want 0", len(a.chunks)-chunks)
	}
}

// TestFifoChunkBoundary carves one chunk into minimum segments so the
// last ends exactly at the chunk boundary, then wraps the queues on both
// sides of the boundary: no queue may see another's elements.
func TestFifoChunkBoundary(t *testing.T) {
	var a arena[int32]
	const per = 1 << minClass
	qs := make([]fifo[int32], arenaChunk/per+1)
	for i := range qs {
		for v := 0; v < per; v++ {
			qs[i].push(int32(i*per+v), &a)
		}
	}
	last, first := qs[arenaChunk/per-1], qs[arenaChunk/per]
	if last.loc>>chunkShift != 0 || last.loc&offMask+per != arenaChunk {
		t.Fatalf("last segment at %#x does not end at the chunk boundary", last.loc)
	}
	if first.loc != 1<<chunkShift {
		t.Fatalf("next segment at %#x, want the start of chunk 1", first.loc)
	}
	wantQ := make([][]int32, len(qs))
	for i := range qs {
		for v := 0; v < per; v++ {
			wantQ[i] = append(wantQ[i], int32(i*per+v))
		}
	}
	for _, i := range []int{arenaChunk/per - 2, arenaChunk/per - 1, arenaChunk / per} {
		for k := 0; k < 3; k++ {
			if got := qs[i].pop(&a); got != wantQ[i][0] {
				t.Fatalf("queue %d: pop = %d, want %d", i, got, wantQ[i][0])
			}
			wantQ[i] = wantQ[i][1:]
			v := int32(-1 - i*per - k)
			qs[i].push(v, &a)
			wantQ[i] = append(wantQ[i], v)
		}
	}
	for i := range qs {
		for _, w := range wantQ[i] {
			if got := qs[i].pop(&a); got != w {
				t.Fatalf("queue %d: pop = %d, want %d", i, got, w)
			}
		}
	}
}

// TestArenaBanksChunkTail checks that a chunk too short for the next
// segment banks its rest as free segments covering it exactly.
func TestArenaBanksChunkTail(t *testing.T) {
	var a arena[int64]
	a.get(minClass)
	a.get(minClass + 1) // 24 elements of chunk 0 used
	if loc := a.get(chunkShift); loc != 1<<chunkShift {
		t.Fatalf("full-chunk segment at %#x, want %#x", loc, 1<<chunkShift)
	}
	type piece struct{ loc, size uint32 }
	var banked []piece
	for c, locs := range a.free {
		for _, loc := range locs {
			banked = append(banked, piece{loc, 1 << c})
		}
	}
	sort.Slice(banked, func(i, j int) bool { return banked[i].loc < banked[j].loc })
	at := uint32(24)
	for _, p := range banked {
		if p.loc != at || p.size < 1<<minClass {
			t.Fatalf("banked piece %+v, want one at %d", p, at)
		}
		at += p.size
	}
	if at != arenaChunk {
		t.Fatalf("banked pieces end at %d, want %d", at, arenaChunk)
	}
}

// TestQueueStatePointerFree pins the fifo header as a 16-byte value with
// no pointers, so the n×n queue arrays are never scanned by the garbage
// collector.
func TestQueueStatePointerFree(t *testing.T) {
	for _, v := range []interface{}{fifo[int32]{}, fifo[int64]{}} {
		typ := reflect.TypeOf(v)
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
		if typ.Size() != 16 {
			t.Errorf("%v is %d bytes, want 16", typ, typ.Size())
		}
	}
}

// hasPointers reports whether values of type t contain pointers.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}
