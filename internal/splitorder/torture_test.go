package splitorder

import (
	"math/rand"
	"sync"
	"testing"
)

// sameBucketKeys returns n keys whose 63-bit hashes agree on their low 12
// bits, so every one of them lands in bucket 0 for any table of up to
// 4096 buckets: all operations on them contend on one run of the list.
func sameBucketKeys(n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(1); len(keys) < n; k++ {
		if hash63(k)&0xfff == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

type tortureVal struct{ key uint64 }

// TestSameBucketTorture races Insert, CompareAndDelete and Lookup on keys
// forced into a single bucket — every marking, unlinking and splicing CAS
// lands on the same few links — then checks per-key accounting, that
// reads only ever returned a value inserted under that key, and the
// sorted-walk invariant of the whole list.
func TestSameBucketTorture(t *testing.T) {
	keys := sameBucketKeys(24)
	m := New[*tortureVal]()
	const workers = 6
	rounds := 6000
	if testing.Short() {
		rounds = 1500
	}
	ins := make([][]int, workers)
	del := make([][]int, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		ins[g] = make([]int, len(keys))
		del[g] = make([]int, len(keys))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(len(keys))
				k := keys[i]
				switch rng.Intn(3) {
				case 0:
					if m.Insert(k, &tortureVal{key: k}) {
						ins[g][i]++
					}
				case 1:
					v, ok := m.Lookup(k)
					if ok && v.key != k {
						t.Errorf("Lookup(%d) returned a value inserted under %d", k, v.key)
						return
					}
					if ok && m.CompareAndDelete(k, v) {
						del[g][i]++
					}
				default:
					if v, ok := m.Lookup(k); ok && v.key != k {
						t.Errorf("Lookup(%d) returned a value inserted under %d", k, v.key)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	present := 0
	for i, k := range keys {
		net := 0
		for g := 0; g < workers; g++ {
			net += ins[g][i] - del[g][i]
		}
		_, ok := m.Lookup(k)
		if net != 0 && net != 1 || ok != (net == 1) {
			t.Fatalf("key %d: net inserts %d, present %v", k, net, ok)
		}
		if ok {
			present++
		}
	}
	if m.Len() != present {
		t.Fatalf("Len = %d, want %d", m.Len(), present)
	}
	if err := checkList(m); err != nil {
		t.Fatal(err)
	}
}
