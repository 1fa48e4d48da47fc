package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"skiptrie"
	"skiptrie/internal/uintbits"
	"skiptrie/internal/workload"
)

const (
	// churnKeys sizes map-churn's resident set (about 26 MB) to fit in
	// a 105 MB L3 cache.
	churnKeys = 1 << 16
	// churnSpare is each map-churn worker's pool of absent keys that
	// fresh-key stores draw from.
	churnSpare = 1 << 14
	// loadChunk is the StoreBatch size of a sorted bulk load.
	loadChunk = 4096
)

// hashedIDs returns n distinct 64-bit IDs: the repository's
// low-discrepancy spread keys, XORed with a seed-derived mask so each
// seed yields a different key set of the same shape.
func hashedIDs(n int, seed uint64) []uint64 {
	keys := workload.SpreadKeys(n, 64)
	mask := uintbits.Mix64(seed + 0x9E3779B97F4A7C15)
	for i := range keys {
		keys[i] ^= mask
	}
	return keys
}

// valueOf is the value map workloads store under k when loading.
func valueOf(k uint64) uint64 { return k*0x9E3779B97F4A7C15 | 1 }

// loadMap builds a Map from keys in ascending order, in StoreBatch
// chunks, and checks that every key arrived.
func loadMap(keys, vals []uint64, traced bool) (*skiptrie.Map[uint64], *skiptrie.Metrics, error) {
	var opts []skiptrie.MapOption
	var mc *skiptrie.Metrics
	if traced {
		mc = &skiptrie.Metrics{}
		opts = append(opts, skiptrie.WithMetrics(mc))
	}
	m, err := skiptrie.NewMap[uint64](opts...)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < len(keys); i += loadChunk {
		j := min(i+loadChunk, len(keys))
		m.StoreBatch(keys[i:j], vals[i:j])
	}
	if n := m.Len(); n != len(keys) {
		return nil, nil, fmt.Errorf("loaded %d keys, map holds %d", len(keys), n)
	}
	return m, mc, nil
}

func mapCounters(mc *skiptrie.Metrics) counters { return counters{metrics: mc.Snapshot()} }

func reconcileMap(ops uint64, before, after counters) error {
	if d := after.metrics.TotalOps() - before.metrics.TotalOps(); d != ops {
		return fmt.Errorf("benchmark issued %d operations, Metrics counted %d", ops, d)
	}
	return nil
}

// mapChurn is the write-heavy workload on a cache-resident set: 40%
// Load, 10% Predecessor, 20% overwriting Store, 15% fresh-key Store and
// 15% Delete, with the resident count held at churnKeys. Each worker
// writes only its own stripe of keys (those whose low bit is the
// worker's index) and checks reads of that stripe against a shadow.
type mapChurn struct {
	seed    uint64
	pools   [workers][]uint64 // each worker's keys: resident first, then spare
	stripes [workers]*churnStripe
	m       *skiptrie.Map[uint64]
	mc      *skiptrie.Metrics
	load    time.Duration
}

// churnStripe is one worker's shadow of its keys. res and free hold
// pool positions; slot[p] is p's position in res, or -1 when absent.
// sorted lists the pool's keys in ascending order and at[i] is the pool
// position of sorted[i].
type churnStripe struct {
	pool      []uint64
	val       []uint64
	slot      []int32
	res, free []int32
	sorted    []uint64
	at        []int32
	next      uint64 // overwrite value sequence
}

func newMapChurn(seed uint64) *mapChurn {
	per := churnKeys/workers + churnSpare
	b := &mapChurn{seed: seed}
	// The spread keys' low bits are balanced, so a quarter of slack
	// fills both stripes.
	for _, k := range hashedIDs(per*workers*5/4, seed) {
		w := k & (workers - 1)
		if len(b.pools[w]) < per {
			b.pools[w] = append(b.pools[w], k)
		}
	}
	// The shadows are allocated here, not in setup, so they stay out of
	// the heap measured around setup.
	for w, pool := range b.pools {
		st := &churnStripe{pool: pool, val: make([]uint64, len(pool)), slot: make([]int32, len(pool)),
			res: make([]int32, 0, len(pool)), free: make([]int32, 0, len(pool)),
			sorted: make([]uint64, len(pool)), at: make([]int32, len(pool))}
		for p := range st.at {
			st.at[p] = int32(p)
		}
		slices.SortFunc(st.at, func(p, q int32) int { return cmp.Compare(pool[p], pool[q]) })
		for i, p := range st.at {
			st.sorted[i] = pool[p]
		}
		b.stripes[w] = st
	}
	return b
}

func (b *mapChurn) setup(traced bool) (time.Duration, error) {
	per := churnKeys / workers
	var keys, vals []uint64
	for w, pool := range b.pools {
		if len(pool) < per+churnSpare {
			return 0, fmt.Errorf("stripe %d drew %d keys, want %d", w, len(pool), per+churnSpare)
		}
		st := b.stripes[w]
		st.res, st.free, st.next = st.res[:0], st.free[:0], uint64(w+1)<<56
		for p := range pool {
			if p < per {
				st.val[p] = valueOf(pool[p])
				st.slot[p] = int32(len(st.res))
				st.res = append(st.res, int32(p))
				keys = append(keys, pool[p])
			} else {
				st.slot[p] = -1
				st.free = append(st.free, int32(p))
			}
		}
	}
	slices.Sort(keys)
	vals = make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = valueOf(k)
	}
	start := time.Now()
	m, mc, err := loadMap(keys, vals, traced)
	if err != nil {
		return 0, err
	}
	b.m, b.mc, b.load = m, mc, time.Since(start)
	return b.load, nil
}

func (b *mapChurn) run(window time.Duration, tallies []*tally, _ bool) {
	target := churnKeys / workers
	runClients(window, tallies, func(w int, t *tally, deadline time.Time) {
		rng := rand.New(rand.NewSource(int64(b.seed)*workers + int64(w)))
		st := b.stripes[w]
		for {
			r, a, f, x := rng.Intn(100), rng.Intn(len(st.res)), rng.Intn(len(st.free)), rng.Uint64()
			start := time.Now()
			if !start.Before(deadline) {
				return
			}
			t.ops++
			p := st.res[a]
			k := st.pool[p]
			switch {
			case r < 40:
				v, ok := b.m.Load(k)
				t.record(read, time.Since(start))
				if !ok || v != st.val[p] {
					t.fail("Load(%#x) = %#x, %v; want %#x, true", k, v, ok, st.val[p])
				}
			case r < 50:
				pk, pv, ok := b.m.Predecessor(x)
				t.record(search, time.Since(start))
				b.checkPred(t, w, x, pk, pv, ok)
			case r < 70:
				st.next++
				b.m.Store(k, st.next)
				t.record(write, time.Since(start))
				st.val[p] = st.next
			case len(st.res) > target || (len(st.res) == target && r < 85):
				ok := b.m.Delete(k)
				t.record(write, time.Since(start))
				if !ok {
					t.fail("Delete(%#x) = false for a resident key", k)
				}
				st.remove(a)
			default:
				q := st.free[f]
				b.m.Store(st.pool[q], valueOf(st.pool[q]))
				t.record(write, time.Since(start))
				st.insert(f)
			}
		}
	})
}

// checkPred checks a Predecessor result: the key must be <= x and one
// of the inputs, and a key of the worker's own stripe must be resident
// with its shadow value. No key of the worker's own stripe may be
// resident above the answer and at or below x (or at or below x at
// all, when there is no answer). Only this worker writes its stripe, so
// those keys are stable during the call. The other stripe changes
// concurrently, so its keys are checked for membership of the inputs
// only.
func (b *mapChurn) checkPred(t *tally, w int, x, k, v uint64, ok bool) {
	st := b.stripes[w]
	if ok {
		kst, p := b.find(k)
		switch {
		case k > x:
			t.fail("Predecessor(%#x) = %#x, above the query", x, k)
			return
		case p < 0:
			t.fail("Predecessor(%#x) = %#x, never stored", x, k)
			return
		case kst == st && (st.slot[p] < 0 || st.val[p] != v):
			t.fail("Predecessor(%#x) = %#x, %#x; shadow has resident=%v value %#x", x, k, v, st.slot[p] >= 0, st.val[p])
			return
		}
	}
	i, found := slices.BinarySearch(st.sorted, x)
	if found {
		i++
	}
	for j := i - 1; j >= 0 && (!ok || st.sorted[j] > k); j-- {
		if st.slot[st.at[j]] < 0 {
			continue
		}
		if ok {
			t.fail("Predecessor(%#x) = %#x; resident key %#x lies between", x, k, st.sorted[j])
		} else {
			t.fail("Predecessor(%#x) = none; resident key %#x is at or below the query", x, st.sorted[j])
		}
		return
	}
}

// find returns the stripe of k and k's position in its pool, or -1 if
// k is none of the inputs.
func (b *mapChurn) find(k uint64) (*churnStripe, int32) {
	st := b.stripes[k&(workers-1)]
	i, found := slices.BinarySearch(st.sorted, k)
	if !found {
		return st, -1
	}
	return st, st.at[i]
}

// remove moves res[a] to the free list.
func (st *churnStripe) remove(a int) {
	p := st.res[a]
	last := len(st.res) - 1
	st.res[a] = st.res[last]
	st.slot[st.res[a]] = int32(a)
	st.res = st.res[:last]
	st.slot[p] = -1
	st.free = append(st.free, p)
}

// insert moves free[f] to the resident set with its load value.
func (st *churnStripe) insert(f int) {
	q := st.free[f]
	last := len(st.free) - 1
	st.free[f] = st.free[last]
	st.free = st.free[:last]
	st.val[q] = valueOf(st.pool[q])
	st.slot[q] = int32(len(st.res))
	st.res = append(st.res, q)
}

func (b *mapChurn) teardown()                { b.m, b.mc = nil, nil }
func (b *mapChurn) residentKeys() int        { return churnKeys }
func (b *mapChurn) counters() counters       { return mapCounters(b.mc) }
func (b *mapChurn) setupLoad() time.Duration { return b.load }
func (b *mapChurn) reconcile(ops uint64, before, after counters) error {
	return reconcileMap(ops, before, after)
}
