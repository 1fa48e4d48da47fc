package skiplist

import (
	"sort"
	"testing"

	"skiptrie/internal/uintbits"
)

// searchKeys is the resident set of the search benchmark, the size of
// the map-churn workload's key set.
const searchKeys = 1 << 16

// benchTopology fills a 64-bit-universe list with searchKeys spread keys
// (odd multiples of a large odd constant, so every query below misses or
// hits at a known place) and returns it with its top-level nodes in key
// order.
func benchTopology() (*List[struct{}], []*Node) {
	l := New[struct{}](Config{Levels: uintbits.Levels(64), Seed: 7})
	for i := uint64(0); i < searchKeys; i++ {
		l.Insert(uintbits.Mix64(i)|1, struct{}{}, nil, nil)
	}
	var tops []*Node
	for n := l.Head(); ; {
		s, _ := n.LoadSucc()
		if n.IsData() {
			tops = append(tops, n)
		}
		if n.IsTail() {
			break
		}
		n = s.Next
	}
	return l, tops
}

// BenchmarkSearch measures a level-0 predecessor bracket over 64k keys,
// from the head sentinel (the truncated skiplist alone) and from the
// top-level node just below the key (the anchor the x-fast trie hands
// the skiplist, so the walk is the SkipTrie's O(log log u) tail). Hits
// query resident keys, misses the even key just below one. Neither may
// allocate.
func BenchmarkSearch(b *testing.B) {
	l, tops := benchTopology()
	const queries = 4096
	type query struct {
		key    uint64
		anchor *Node
	}
	mk := func(miss uint64) []query {
		qs := make([]query, queries)
		for i := range qs {
			k := uintbits.Mix64(uint64(i)*15) | 1
			k -= miss
			j := sort.Search(len(tops), func(j int) bool { return tops[j].Key() > k })
			var a *Node
			if j > 0 {
				a = tops[j-1]
			}
			qs[i] = query{k, a}
		}
		return qs
	}
	for _, bc := range []struct {
		name     string
		miss     uint64
		anchored bool
	}{
		{"head/hit", 0, false}, {"head/miss", 1, false},
		{"anchored/hit", 0, true}, {"anchored/miss", 1, true},
	} {
		qs := mk(bc.miss)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i%queries]
				var start *Node
				if bc.anchored {
					start = q.anchor
				}
				br := l.PredecessorBracket(q.key, start, nil)
				if hit := br.Right.IsData() && br.Right.Key() == q.key; hit != (bc.miss == 0) {
					b.Fatalf("bracket of %d: hit %v", q.key, hit)
				}
			}
		})
	}
}

// TestSearchAllocs pins the search path at zero allocations.
func TestSearchAllocs(t *testing.T) {
	l := New[struct{}](Config{Levels: 6, Seed: 7})
	for i := uint64(0); i < 4096; i++ {
		l.Insert(i*2, struct{}{}, nil, nil)
	}
	k := uint64(0)
	if got := testing.AllocsPerRun(2000, func() {
		l.PredecessorBracket(k, nil, nil)
		k = (k + 7) % 8192
	}); got != 0 {
		t.Fatalf("search allocates %.2f objects per call, want 0", got)
	}
}
