package splitorder

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentBucketInitialization hits a fresh (fully grown) table from
// many goroutines at once so sentinel splicing races on every lookup path:
// each parent chain must be initialized exactly once and reads must never
// miss.
func TestConcurrentBucketInitialization(t *testing.T) {
	m := New[uint64]()
	// Grow the table first so lookups spread across many uninitialized
	// buckets.
	const n = 20000
	for i := uint64(0); i < n; i++ {
		m.Insert(i, i)
	}
	// Fresh map with the same content but grown lazily under concurrency:
	m2 := New[uint64]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				if !m2.Insert(i, i) {
					t.Errorf("insert %d failed", i)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	// Concurrent cold reads against yet-unsplit buckets.
	var rg sync.WaitGroup
	for g := 0; g < 8; g++ {
		rg.Add(1)
		go func(g uint64) {
			defer rg.Done()
			for i := g; i < n; i += 8 {
				if v, ok := m2.Lookup(i); !ok || v != i {
					t.Errorf("lookup %d = %d, %v", i, v, ok)
					return
				}
			}
		}(uint64(g))
	}
	rg.Wait()
	if m2.Len() != n {
		t.Fatalf("Len = %d, want %d", m2.Len(), n)
	}
}

// TestListStaysSortedBySplitOrder verifies the global list invariant after
// heavy growth: codes are nondecreasing, sentinels partition regular
// nodes correctly, and no marker is ever reachable as a list node (a
// marker is only seen through the word of the node it marks).
func TestListStaysSortedBySplitOrder(t *testing.T) {
	m := New[int]()
	for i := uint64(0); i < 5000; i++ {
		m.Insert(i*2654435761, 1)
	}
	for i := uint64(0); i < 5000; i += 3 {
		m.Delete(i * 2654435761)
	}
	if err := checkList(m); err != nil {
		t.Fatal(err)
	}
	if want := 5000 - (5000+2)/3; m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
}

// checkList walks the whole list from bucket 0's sentinel and verifies
// the representation invariants: no marker is reachable as a list node,
// a marker's frozen successor is never itself a marker, unmarked codes
// are nondecreasing (strictly, with key tie-breaks, for regular items),
// every initialized bucket's sentinel is on the list, and the number of
// unmarked regular nodes equals Len. Call only at quiescence.
func checkList[V comparable](m *Map[V]) error {
	onList := make(map[*node[V]]bool)
	var prev *node[V]
	count := 0
	for n := m.sentinel(0); n != nil; {
		if n.kind == kindMarker {
			return fmt.Errorf("marker reachable as a list node (after code %x)", prev.code)
		}
		raw := n.next.Load()
		next, marked := n.succ()
		if marked && next != nil && next.kind == kindMarker {
			return fmt.Errorf("marker of code %x freezes another marker", n.code)
		}
		if raw != nil && raw.kind == kindMarker != marked {
			return fmt.Errorf("succ() disagrees with the raw word at code %x", n.code)
		}
		if !marked {
			if prev != nil && !prev.before(n.code, n.key) {
				return fmt.Errorf("split order violated: %x/%d after %x/%d", n.code, n.key, prev.code, prev.key)
			}
			if n.kind == kindSentinel && n.code&1 != 0 || n.kind == kindRegular && n.code&1 == 0 {
				return fmt.Errorf("node kind %d carries code %x of the wrong parity", n.kind, n.code)
			}
			prev = n
			onList[n] = true
			if n.kind == kindRegular {
				count++
			}
		} else if n.kind == kindSentinel {
			return fmt.Errorf("sentinel %d is marked", n.key)
		}
		n = next
	}
	for b := uint64(0); b < m.size.Load(); b++ {
		if s := m.slot(b).Load(); s != nil && !onList[s] {
			return fmt.Errorf("bucket %d's sentinel is not on the list", b)
		}
	}
	if count != m.Len() {
		return fmt.Errorf("walked %d unmarked regular nodes, Len = %d", count, m.Len())
	}
	return nil
}
