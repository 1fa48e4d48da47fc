// Package splitorder implements a lock-free, resizable hash table using
// split-ordered lists (Shalev and Shavit, "Split-Ordered Lists: Lock-Free
// Extensible Hash Tables", PODC 2003), the table the SkipTrie paper uses
// for its prefixes map.
//
// All items live in a single lock-free sorted linked list (Harris-Michael,
// with links laid out as in Java's ConcurrentSkipListMap: each node's next
// is one atomic pointer, and a node is logically deleted by swinging its
// next onto a marker node that holds the frozen successor). The list is
// sorted by "split order" — the bit-reversed hash — so that when
// the bucket count doubles, a new bucket's items already form a contiguous
// run inside its parent bucket's run, and "splitting" a bucket is just
// lazily inserting one new sentinel node. Nothing is ever rehashed or
// moved.
//
// In addition to the usual operations, the SkipTrie requires
// CompareAndDelete(key, v), which removes the entry iff it currently maps
// to exactly v (Section 4, "The hash table"). This is the hook that lets
// trie-node tombstoning be helped by concurrent inserts without ever
// deleting a newer incarnation of the same prefix.
//
// # Split-order codes
//
// Keys are hashed to a 63-bit value h (the top bit of the 64-bit mix is
// discarded). A regular item's sort code is reverse(h) | 1 — odd; the
// sentinel for bucket b has code reverse(b) — even (bucket indexes stay
// far below 2^62). Reversal makes bucket b's sentinel sort immediately
// before every item with h ≡ b (mod 2^i) for the current table size 2^i,
// which is what makes lazy splitting sound. Ties on code (possible only
// for regular items whose 63-bit hashes collide) are broken by the key
// itself.
//
// # Links and ABA
//
// Every CAS on a link compares the expected successor pointer itself —
// the paper's value-based guard "pred is unmarked and pred.next = curr" —
// not the identity of a boxed cell. A link word holding a regular or
// sentinel node means "unmarked, next = that node"; a word holding a
// marker means "marked", and marking is permanent (nothing ever CASes a
// marked word). Value comparison is ABA-safe here for two reasons. Go's
// garbage collector never reuses a node's address while any goroutine
// still holds a reference to it, so an expected pointer cannot come to
// name a different node. And a node is never relinked: once a marked
// node is spliced out of the list no link targets it again, because
// inserts publish only fresh nodes and unlinks splice past a marked node
// to its frozen successor, which is still in the list. A word that reads
// curr again after changing therefore still means "curr follows pred",
// which is all the CAS relies on.
package splitorder

import (
	"math/bits"
	"sync/atomic"

	"skiptrie/internal/uintbits"
)

const (
	segBits = 9 // 512 buckets per directory segment
	segSize = 1 << segBits
	dirSize = 1 << 13 // up to 2^22 = 4M buckets

	initialBuckets = 4
	// maxLoad is the average number of regular items per bucket beyond
	// which the bucket count doubles.
	maxLoad = 3
)

// Map is a lock-free hash map from uint64 keys to values of type V.
// V must be comparable to support CompareAndDelete. The zero Map is not
// ready for use; call New.
type Map[V comparable] struct {
	dir   [dirSize]atomic.Pointer[segment[V]]
	size  atomic.Uint64 // current bucket count, a power of two
	count atomic.Int64  // regular (non-sentinel) items, approximate
}

type segment[V comparable] [segSize]atomic.Pointer[node[V]]

// nodeKind distinguishes the three node shapes that share the list.
type nodeKind uint8

const (
	kindRegular  nodeKind = iota // a key/value item
	kindSentinel                 // a bucket's entry point; never deleted
	kindMarker                   // logical-deletion marker; next is the frozen successor
)

type node[V comparable] struct {
	code uint64 // split-order code; odd = regular, even = sentinel
	key  uint64 // original key (regular) or bucket index (sentinel)
	next atomic.Pointer[node[V]]
	val  V
	kind nodeKind
}

// succ decodes n's link word: the successor, and whether n is logically
// deleted (its word holds a marker, whose own next is the frozen
// successor).
func (n *node[V]) succ() (next *node[V], marked bool) {
	next = n.next.Load()
	if next != nil && next.kind == kindMarker {
		return next.next.Load(), true
	}
	return next, false
}

// New returns an empty map.
func New[V comparable]() *Map[V] {
	m := &Map[V]{}
	m.size.Store(initialBuckets)
	return m
}

func hash63(key uint64) uint64 {
	return uintbits.Mix64(key) >> 1
}

func regularCode(h63 uint64) uint64 {
	return bits.Reverse64(h63) | 1
}

func sentinelCode(b uint64) uint64 {
	return bits.Reverse64(b)
}

// before reports whether node n sorts strictly before target (code, key).
func (n *node[V]) before(code, key uint64) bool {
	if n.code != code {
		return n.code < code
	}
	return n.key < key
}

// Lookup returns the value stored under key. It only reads: it follows
// links in key order, through the markers of deleted nodes to their
// frozen successors, without helping to unlink them, and checks the mark
// of the matching node alone (the wait-free contains of Herlihy and
// Shavit's lock-free list). A miss therefore never loads past the first
// node at or after the key.
func (m *Map[V]) Lookup(key uint64) (V, bool) {
	h := hash63(key)
	code := regularCode(h)
	curr := m.sentinel(h & (m.size.Load() - 1))
	for curr != nil && curr.before(code, key) {
		curr, _ = curr.succ()
	}
	if curr != nil && curr.code == code && curr.key == key {
		if _, marked := curr.succ(); !marked {
			return curr.val, true
		}
	}
	var zero V
	return zero, false
}

// Insert adds key -> v if key is absent and reports whether it did.
func (m *Map[V]) Insert(key uint64, v V) bool {
	h := hash63(key)
	code := regularCode(h)
	n := &node[V]{code: code, key: key, val: v}
	for {
		start := m.sentinel(h & (m.size.Load() - 1))
		pred, curr := m.search(start, code, key)
		if curr != nil && curr.code == code && curr.key == key {
			return false
		}
		n.next.Store(curr)
		if pred.next.CompareAndSwap(curr, n) {
			m.count.Add(1)
			m.maybeGrow()
			return true
		}
	}
}

// Delete removes key and returns the value it held.
func (m *Map[V]) Delete(key uint64) (V, bool) {
	return m.deleteIf(key, nil)
}

// CompareAndDelete removes key iff it currently maps to exactly want,
// reporting whether it removed the entry. This is the extra method the
// SkipTrie's trie-node tombstoning requires.
func (m *Map[V]) CompareAndDelete(key uint64, want V) bool {
	_, ok := m.deleteIf(key, func(v V) bool { return v == want })
	return ok
}

func (m *Map[V]) deleteIf(key uint64, pred func(V) bool) (V, bool) {
	var zero V
	h := hash63(key)
	code := regularCode(h)
	// The marker is allocated once per call: a failed marking CAS never
	// published it, so the next attempt may reuse it.
	var mk *node[V]
	for {
		start := m.sentinel(h & (m.size.Load() - 1))
		p, curr := m.search(start, code, key)
		if curr == nil || curr.code != code || curr.key != key {
			return zero, false
		}
		if pred != nil && !pred(curr.val) {
			return zero, false
		}
		next := curr.next.Load()
		if next != nil && next.kind == kindMarker {
			continue // concurrently deleted; re-search to converge
		}
		if mk == nil {
			mk = &node[V]{kind: kindMarker}
		}
		mk.next.Store(next)
		if curr.next.CompareAndSwap(next, mk) {
			m.count.Add(-1)
			// Best-effort physical unlink; searches clean up otherwise.
			p.next.CompareAndSwap(curr, next)
			return curr.val, true
		}
	}
}

// search walks from start (an unmarked sentinel) and returns (pred, curr)
// such that pred sorts before (code, key), curr is the first node not
// before (code, key) (nil at end of list), and at some instant during the
// call pred was unmarked with pred.next = curr — so a CAS of pred.next
// expecting curr succeeds only while that still holds. Marked nodes
// encountered on the way are physically unlinked. Neither result is ever
// a marker: a marker is only reachable through the word of the node it
// marks, and is decoded there.
func (m *Map[V]) search(start *node[V], code, key uint64) (*node[V], *node[V]) {
	// start is always a sentinel and sentinels are never marked, so the
	// initial pred is always a valid unmarked left anchor.
retry:
	pred := start
	curr := pred.next.Load()
	for curr != nil {
		next, marked := curr.succ()
		if marked {
			if !pred.next.CompareAndSwap(curr, next) {
				goto retry
			}
			curr = next
			continue
		}
		if !curr.before(code, key) {
			return pred, curr
		}
		pred, curr = curr, next
	}
	return pred, nil
}

// sentinel returns bucket b's sentinel node, lazily splicing it (and,
// recursively, its parents') into the list.
func (m *Map[V]) sentinel(b uint64) *node[V] {
	if s := m.slot(b).Load(); s != nil {
		return s
	}
	return m.initBucket(b)
}

// parentBucket clears the highest set bit: the bucket b split from.
func parentBucket(b uint64) uint64 {
	return b &^ (1 << (bits.Len64(b) - 1))
}

func (m *Map[V]) initBucket(b uint64) *node[V] {
	slot := m.slot(b)
	if b == 0 {
		n := &node[V]{code: 0, kind: kindSentinel}
		if slot.CompareAndSwap(nil, n) {
			return n
		}
		return slot.Load()
	}
	parent := m.sentinel(parentBucket(b))
	code := sentinelCode(b)
	for {
		pred, curr := m.search(parent, code, b)
		if curr != nil && curr.code == code && curr.kind == kindSentinel {
			// A racing initializer already spliced it in.
			slot.CompareAndSwap(nil, curr)
			return slot.Load()
		}
		n := &node[V]{code: code, key: b, kind: kindSentinel}
		n.next.Store(curr)
		if pred.next.CompareAndSwap(curr, n) {
			slot.CompareAndSwap(nil, n)
			return slot.Load()
		}
	}
}

func (m *Map[V]) slot(b uint64) *atomic.Pointer[node[V]] {
	segIdx := b >> segBits
	seg := m.dir[segIdx].Load()
	if seg == nil {
		m.dir[segIdx].CompareAndSwap(nil, new(segment[V]))
		seg = m.dir[segIdx].Load()
	}
	return &seg[b&(segSize-1)]
}

func (m *Map[V]) maybeGrow() {
	size := m.size.Load()
	if m.count.Load() > int64(size)*maxLoad && size < dirSize*segSize/2 {
		m.size.CompareAndSwap(size, size*2)
	}
}

// Len returns the number of items in the map. Under concurrent mutation
// the value is a point-in-time approximation.
func (m *Map[V]) Len() int {
	return int(m.count.Load())
}

// Buckets returns the current bucket count (for space accounting).
func (m *Map[V]) Buckets() int {
	return int(m.size.Load())
}

// Range calls fn on each key/value pair until fn returns false. The
// iteration is weakly consistent: it reflects some interleaving of
// concurrent updates.
func (m *Map[V]) Range(fn func(key uint64, v V) bool) {
	curr := m.sentinel(0)
	for curr != nil {
		next, marked := curr.succ()
		if curr.kind == kindRegular && !marked {
			if !fn(curr.key, curr.val) {
				return
			}
		}
		curr = next
	}
}
