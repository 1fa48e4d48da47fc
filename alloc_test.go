package skiptrie

import "testing"

// Allocation regression tests for the write path. The budgets below pin
// the measured per-op object counts after the pooling work (tower slab +
// discarded-node pool); regressions that add objects per op fail here
// before they show up in benchmarks.

// allocsPerRun is testing.AllocsPerRun with the warm-up the pool needs:
// the first runs populate the sync.Pool and stripe seeds, so we measure
// the steady state.
func allocsPerRun(runs int, f func()) float64 {
	for i := 0; i < 8; i++ {
		f()
	}
	return testing.AllocsPerRun(runs, f)
}

func TestAllocsFreshInsert(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	var k uint64
	got := allocsPerRun(2000, func() {
		m.Store(k, int(k))
		k += 3
	})
	// Seed measured 13.0 objects per fresh insert; the tower slab (one
	// backing array per multi-level tower instead of h-1 node allocs)
	// and the discard pool brought it to 12.0, and plain pointer links
	// (no boxed cell per link write, one descriptor slab per tower
	// raise) to 5.0. Budget 5.5 allows noise while still catching any
	// full-object regression.
	if got > 5.5 {
		t.Fatalf("fresh insert allocates %.1f objects/op, budget 5.5 (seed was 13.0)", got)
	}
}

func TestAllocsDelete(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	for i := uint64(0); i < 40000; i++ {
		m.Store(i*3, int(i))
	}
	var k uint64
	got := allocsPerRun(2000, func() {
		m.Delete(k)
		k += 3
	})
	// A delete allocates one marker per tower level it marks and
	// nothing for its unlinking CASes: measured 3.0 (5.0 with boxed
	// link cells).
	if got > 3.5 {
		t.Fatalf("delete allocates %.1f objects/op, budget 3.5", got)
	}
}

func TestAllocsStoreExisting(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	for i := uint64(0); i < 1024; i++ {
		m.Store(i, int(i))
	}
	var k uint64
	if got := allocsPerRun(2000, func() {
		m.Store(k&1023, 7)
		k++
	}); got != 0 {
		t.Fatalf("Store of existing key allocates %.1f objects/op, want 0", got)
	}
}

func TestAllocsLoad(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	for i := uint64(0); i < 1024; i++ {
		m.Store(i, int(i))
	}
	var k uint64
	if got := allocsPerRun(2000, func() {
		m.Load(k & 1023)
		k++
	}); got != 0 {
		t.Fatalf("Load allocates %.1f objects/op, want 0", got)
	}
}

func TestAllocsMeteredLoad(t *testing.T) {
	var met Metrics
	m := MustNewMap[int](WithWidth(32), WithSeed(1), WithMetrics(&met))
	for i := uint64(0); i < 1024; i++ {
		m.Store(i, int(i))
	}
	var k uint64
	// The per-op stats.Op counter must stay stack-allocated even with a
	// collector attached: record only reads it, so it must not escape.
	if got := allocsPerRun(2000, func() {
		m.Load(k & 1023)
		k++
	}); got != 0 {
		t.Fatalf("metered Load allocates %.1f objects/op, want 0", got)
	}
}

func TestAllocsStoreBatchPerKey(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	const batch = 256
	keys := make([]uint64, batch)
	vals := make([]int, batch)
	var base uint64
	got := allocsPerRun(50, func() {
		for i := range keys {
			keys[i] = base + uint64(i)*3
			vals[i] = i
		}
		base += batch * 3
		m.StoreBatch(keys, vals)
	})
	// Sorted input takes the zero-copy fast path, so the whole batch's
	// allocations are the fresh inserts themselves (measured 5.73 per
	// key). Budget matches the fresh-insert budget per key plus slack
	// for one-off pool misses.
	perKey := got / batch
	if perKey > 6.0 {
		t.Fatalf("StoreBatch allocates %.2f objects per key, budget 6.0", perKey)
	}
}

func TestAllocsStoreBatchExisting(t *testing.T) {
	m := MustNewMap[int](WithWidth(32), WithSeed(1))
	const batch = 256
	keys := make([]uint64, batch)
	vals := make([]int, batch)
	for i := range keys {
		keys[i] = uint64(i) * 3
		vals[i] = i
	}
	m.StoreBatch(keys, vals)
	// Re-storing the same sorted run must not allocate at all: no new
	// nodes, no sort copy, no per-key boxing.
	if got := allocsPerRun(200, func() { m.StoreBatch(keys, vals) }); got != 0 {
		t.Fatalf("StoreBatch over existing keys allocates %.1f objects/batch, want 0", got)
	}
}
