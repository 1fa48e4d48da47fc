package splitorder

import "testing"

// lookupKeys is the resident set size of the lookup benchmark, about
// the number of trie prefixes the map-churn workload's x-fast trie holds.
const lookupKeys = 55000

func benchMap() *Map[*int] {
	m := New[*int]()
	v := new(int)
	for k := uint64(0); k < lookupKeys; k++ {
		m.Insert(k*2, v)
	}
	return m
}

// BenchmarkLookup measures one hash probe into a table the size of a
// large x-fast trie's prefix map: hits on resident (even) keys, misses on
// absent (odd) ones. Both must allocate nothing.
func BenchmarkLookup(b *testing.B) {
	m := benchMap()
	for _, bc := range []struct {
		name string
		odd  uint64
	}{{"hit", 0}, {"miss", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			k := uint64(0)
			for i := 0; i < b.N; i++ {
				if _, ok := m.Lookup(k*2 + bc.odd); ok == (bc.odd == 1) {
					b.Fatalf("Lookup(%d) = %v", k*2+bc.odd, ok)
				}
				if k++; k == lookupKeys {
					k = 0
				}
			}
		})
	}
}

// TestLookupAllocs pins the probe path at zero allocations, hit or miss:
// links are plain pointers, so neither the walk nor the unlinking it
// helps with allocates.
func TestLookupAllocs(t *testing.T) {
	m := New[*int]()
	v := new(int)
	for k := uint64(0); k < 4096; k++ {
		m.Insert(k*2, v)
	}
	k := uint64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		m.Lookup(k)
		k = (k + 1) % 8192
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %.2f objects per call, want 0", allocs)
	}
}
