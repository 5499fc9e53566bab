package congestion

import (
	"fmt"
	"reflect"
	"testing"

	"sirius/internal/rng"
)

// This file keeps the controller's previous request bookkeeping as a
// test-only reference: per intermediate, an insertion-ordered map of
// per-destination source lists (reqSet, n lists per intermediate), and
// the processRequests that drew grants from it.
// TestProcessRequestsMatchesReference drives it in lockstep with the
// controller and compares the grants after every Tick.

// reqSet accumulates the requests one intermediate received this epoch,
// indexed by destination, preserving insertion order for determinism.
type reqSet struct {
	dsts []int32
	srcs [][]int32 // per destination; sized to the node count
}

func (r *reqSet) add(dst, src int) {
	if len(r.srcs[dst]) == 0 {
		r.dsts = append(r.dsts, int32(dst))
	}
	r.srcs[dst] = append(r.srcs[dst], int32(src))
}

func (r *reqSet) reset() {
	for _, d := range r.dsts {
		r.srcs[d] = r.srcs[d][:0]
	}
	r.dsts = r.dsts[:0]
}

// refController is a Controller whose intermediates group their requests
// with reqSet. The request side (issueRequests, pickAvailable) and the
// grant buffers are the controller's own; only processRequests differs.
type refController struct {
	*Controller
	sets []reqSet
}

func newRefController(t *testing.T, n, q, perDest int, seed uint64) *refController {
	t.Helper()
	c, err := New(n, q, perDest, seed)
	if err != nil {
		t.Fatal(err)
	}
	rc := &refController{Controller: c, sets: make([]reqSet, n)}
	for i := range rc.sets {
		rc.sets[i].srcs = make([][]int32, n)
	}
	return rc
}

// Tick is Controller.Tick with the reference processRequests.
func (rc *refController) Tick(demand func(node int) []int) [][]Grant {
	c := rc.Controller
	if c.instant {
		c.issueRequests(demand)
		rc.processRequests()
		return c.swapGranted()
	}
	delivered := c.swapGranted()
	rc.processRequests()
	c.issueRequests(demand)
	return delivered
}

// processRequests is the previous implementation. The requests are
// replayed into the reqSets in arrival order, the order in which the
// previous request side called add.
func (rc *refController) processRequests() {
	c := rc.Controller
	r := c.r
	for via := 0; via < c.n; via++ {
		reqs := &rc.sets[via]
		for _, q := range c.inflight[via] {
			reqs.add(int(q>>32), int(uint32(q)))
		}
		c.inflight[via] = c.inflight[via][:0]
		if len(reqs.dsts) == 0 {
			continue
		}
		base := via * c.n
		for _, dst32 := range reqs.dsts {
			dst := int(dst32)
			srcs := reqs.srcs[dst]
			for g := 0; g < c.perDest; g++ {
				if len(srcs) == 0 {
					break
				}
				if int(c.queued[base+dst])+int(c.grantsOut[base+dst]) >= c.q {
					break
				}
				pick := r.Intn(len(srcs))
				src := int(srcs[pick])
				srcs[pick] = srcs[len(srcs)-1]
				srcs = srcs[:len(srcs)-1]
				c.grantsOut[base+dst]++
				c.granted[src] = append(c.granted[src], Grant{Src: src, Via: via, Dst: dst})
			}
		}
		reqs.reset()
	}
}

// TestProcessRequestsMatchesReference runs random request streams through
// the controller and the reference in lockstep: every Tick must deliver
// the same grants in the same order and leave both RNGs at the same
// point. A hot destination set makes many sources contend for one
// destination at one intermediate, so the draw order depends on both the
// destination order and the source order of the grouping.
func TestProcessRequestsMatchesReference(t *testing.T) {
	for _, n := range []int{2, 3, 64, 1024} {
		for perDest := 1; perDest <= 3; perDest++ {
			for _, instant := range []bool{false, true} {
				for _, variant := range []string{"plain", "failed", "nodirect"} {
					if variant == "failed" && n < 3 {
						continue // two live nodes must remain
					}
					name := fmt.Sprintf("n%d/k%d/instant=%t/%s", n, perDest, instant, variant)
					t.Run(name, func(t *testing.T) {
						lockstep(t, n, perDest, instant, variant, uint64(n*31+perDest))
					})
				}
			}
		}
	}
}

func lockstep(t *testing.T, n, perDest int, instant bool, variant string, seed uint64) {
	q := 2 * perDest
	got, err := New(n, q, perDest, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefController(t, n, q, perDest, seed)
	r := rng.New(seed ^ 0x5eed)
	var failed []bool
	switch variant {
	case "failed":
		failed = make([]bool, n)
		for i := 0; i < n/8+1; i++ {
			failed[1+r.Intn(n-1)] = true
		}
		for _, c := range []*Controller{got, want.Controller} {
			if err := c.ExcludeVias(failed); err != nil {
				t.Fatal(err)
			}
		}
	case "nodirect":
		got.DisallowDirect()
		want.DisallowDirect()
	}
	if instant {
		got.InstantControl()
		want.InstantControl()
	}
	live := func(i int) bool { return failed == nil || !failed[i] }

	// A toy data plane shared by both controllers: per-node LOCAL queues
	// of destinations, and the (via, dst) forward queues in order of
	// first use with their depths.
	local := make([][]int, n)
	fwdAt := map[[2]int]int{}
	var fwdKeys [][2]int
	var fwdLen []int
	hot := []int{0, n / 2, n - 1}
	limit := perDest * (n - 1)
	demand := func(i int) []int {
		d := local[i]
		if len(d) > limit {
			d = d[:limit]
		}
		return d
	}
	active := n
	if active > 64 {
		active = 64
	}
	for epoch := 0; epoch < 40; epoch++ {
		// Offer new cells at a few sources, half of them to the hot set.
		for k := 0; k < active; k++ {
			src := r.Intn(n)
			if !live(src) {
				continue
			}
			for c := r.Intn(4); c > 0; c-- {
				dst := r.Intn(n)
				if r.Intn(2) == 0 {
					dst = hot[r.Intn(len(hot))]
				}
				if dst != src && live(dst) {
					local[src] = append(local[src], dst)
				}
			}
		}
		gg := got.Tick(demand)
		wg := want.Tick(demand)
		if !reflect.DeepEqual(gg, wg) {
			t.Fatalf("epoch %d: grants differ:\n got  %v\n want %v", epoch, gg, wg)
		}
		if a, b := got.r.Uint64(), want.r.Uint64(); a != b {
			t.Fatalf("epoch %d: next RNG draw %#x, reference %#x", epoch, a, b)
		}
		for src, gs := range gg {
			for _, g := range gs {
				at := -1
				for i, d := range local[src] {
					if d == g.Dst {
						at = i
						break
					}
				}
				if at < 0 {
					got.OnGrantUnused(g.Via, g.Dst)
					want.OnGrantUnused(g.Via, g.Dst)
					continue
				}
				local[src] = append(local[src][:at], local[src][at+1:]...)
				got.OnCellArrived(g.Via, g.Dst)
				want.OnCellArrived(g.Via, g.Dst)
				if g.Via != g.Dst {
					key := [2]int{g.Via, g.Dst}
					i, ok := fwdAt[key]
					if !ok {
						i = len(fwdKeys)
						fwdAt[key] = i
						fwdKeys, fwdLen = append(fwdKeys, key), append(fwdLen, 0)
					}
					fwdLen[i]++
				}
			}
		}
		// Forward about half of the queued pairs one cell each, so the
		// queue bound keeps biting.
		for i, key := range fwdKeys {
			if fwdLen[i] > 0 && r.Intn(2) == 0 {
				fwdLen[i]--
				got.OnCellForwarded(key[0], key[1])
				want.OnCellForwarded(key[0], key[1])
			}
		}
	}
}

// TestRequestStatePointerFree pins the request lists' element type as
// pointer-free, so the garbage collector never scans them.
func TestRequestStatePointerFree(t *testing.T) {
	c, err := New(4, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if el := reflect.TypeOf(c.inflight).Elem().Elem(); hasPointers(el) {
		t.Errorf("request element %v holds pointers", el)
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
