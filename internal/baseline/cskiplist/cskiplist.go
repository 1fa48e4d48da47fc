// Package cskiplist implements a classic lock-free skiplist of height
// O(log m) in the style of Herlihy & Shavit's LockFreeSkipList (itself
// modeled on Lea's ConcurrentSkipListMap and Fomitchev-Ruppert), used as
// the baseline the SkipTrie paper compares against: every prior concurrent
// predecessor structure has depth logarithmic in m, the number of keys.
//
// Unlike the SkipTrie's truncated skiplist (internal/skiplist), towers here
// are arrays inside a single node, the height is unbounded by the universe
// (capped at MaxHeight), and searches always start from the head: cost
// Θ(log m) regardless of the universe width.
//
// Node links use the same representation as the SkipTrie's lists: one
// atomic pointer per link, with a node logically deleted at a level by
// swinging that level's link onto a marker node holding the frozen
// successor, and every CAS comparing the expected successor pointer. So
// step-count and wall-clock comparisons between the two structures
// measure the algorithm, not the memory layout. The ABA argument is the
// skiplist's (internal/skiplist/link.go): the GC never reuses a
// referenced node's address, and no unlinked node is ever relinked.
package cskiplist

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"skiptrie/internal/stats"
	"skiptrie/internal/uintbits"
)

// MaxHeight bounds tower heights; 2^32 keys fill it.
const MaxHeight = 32

// Sentinel values of node.sent.
const (
	sentHead   = -1
	sentData   = 0
	sentTail   = +1
	sentMarker = +2 // a marker; next[0] is the frozen successor
)

type node struct {
	key    uint64
	val    atomic.Pointer[valueCell]
	sent   int8
	height int
	next   []atomic.Pointer[node]
}

// markerNode is a marker allocation: the node header plus the one link
// its next slice views, so a marker costs a single allocation.
type markerNode struct {
	node
	link [1]atomic.Pointer[node]
}

func newMarker(frozen *node) *node {
	m := &markerNode{node: node{sent: sentMarker}}
	m.next = m.link[:]
	m.link[0].Store(frozen)
	return &m.node
}

type valueCell struct{ v any }

// succ decodes n's level-lv link: the successor, and whether n is
// deleted at that level.
func (n *node) succ(lv int) (*node, bool) {
	p := n.next[lv].Load()
	if p != nil && p.sent == sentMarker {
		return p.next[0].Load(), true
	}
	return p, false
}

// List is a lock-free skiplist over uint64 keys.
type List struct {
	head   *node
	tail   *node
	rng    atomic.Uint64
	length atomic.Int64
}

// New returns an empty list. seed seeds tower-height randomness (0 selects
// a fixed default).
func New(seed uint64) *List {
	if seed == 0 {
		seed = 0xC1A551C0DE
	}
	l := &List{
		head: &node{sent: sentHead, height: MaxHeight, next: make([]atomic.Pointer[node], MaxHeight)},
		tail: &node{sent: sentTail, height: MaxHeight, next: make([]atomic.Pointer[node], MaxHeight)},
	}
	l.rng.Store(seed)
	for i := 0; i < MaxHeight; i++ {
		l.head.next[i].Store(l.tail)
	}
	return l
}

// Len returns the number of keys (approximate under concurrency).
func (l *List) Len() int { return int(l.length.Load()) }

func (l *List) randomHeight() int {
	x := uintbits.Mix64(l.rng.Add(0x9E3779B97F4A7C15))
	return bits.TrailingZeros64(x|1<<(MaxHeight-1)) + 1
}

// before reports whether n sorts strictly before key.
func (n *node) before(key uint64) bool {
	return n.sent == sentHead || (n.sent == sentData && n.key < key)
}

// find locates the bracket of key on every level, unlinking marked nodes
// it passes. succs[0] is the first node >= key (possibly the tail). At
// some instant during the call each preds[lv] was unmarked at level lv
// with next = succs[lv], so a CAS of that link expecting succs[lv] acts
// only while that still holds. A pred carried down from the level above
// may since have been marked at this level; the walk then restarts, as
// continuing from a deleted node would bracket key against a node that
// is no longer on the list.
func (l *List) find(key uint64, preds, succs *[MaxHeight]*node, c *stats.Op) bool {
retry:
	pred := l.head
	for lv := MaxHeight - 1; lv >= 0; lv-- {
		curr, marked := pred.succ(lv)
		if marked {
			goto retry
		}
		for {
			c.Hop()
			next, cmarked := curr.succ(lv)
			for cmarked {
				// Unlink the marked node.
				c.IncCAS()
				if !pred.next[lv].CompareAndSwap(curr, next) {
					goto retry
				}
				curr = next
				c.Hop()
				next, cmarked = curr.succ(lv)
			}
			if curr.before(key) {
				pred, curr = curr, next
				continue
			}
			break
		}
		preds[lv], succs[lv] = pred, curr
	}
	return succs[0].sent == sentData && succs[0].key == key
}

// Insert adds key with an optional value, reporting whether it was absent.
func (l *List) Insert(key uint64, val any, c *stats.Op) bool {
	var preds, succs [MaxHeight]*node
	h := l.randomHeight()
	n := &node{key: key, height: h, next: make([]atomic.Pointer[node], h)}
	if val != nil {
		n.val.Store(&valueCell{v: val})
	}
	for {
		if l.find(key, &preds, &succs, c) {
			return false
		}
		// Link bottom level: the linearization point.
		n.next[0].Store(succs[0])
		c.IncCAS()
		if preds[0].next[0].CompareAndSwap(succs[0], n) {
			break
		}
	}
	l.length.Add(1)
	// Raise remaining levels.
	for lv := 1; lv < h; lv++ {
		for {
			p := n.next[lv].Load()
			if p != nil && p.sent == sentMarker {
				return true // deleted concurrently; stop raising
			}
			if p != succs[lv] && !n.next[lv].CompareAndSwap(p, succs[lv]) {
				return true // marked under us
			}
			c.IncCAS()
			if preds[lv].next[lv].CompareAndSwap(succs[lv], n) {
				break
			}
			// Our own node is found at level 0; keep raising with fresh
			// brackets.
			l.find(key, &preds, &succs, c)
			if n.marked(0) {
				return true
			}
		}
	}
	return true
}

func (n *node) marked(lv int) bool {
	_, m := n.succ(lv)
	return m
}

// mark marks n at level lv, reporting whether this call did it.
func (n *node) mark(lv int, c *stats.Op) bool {
	var mk *node
	for {
		next, marked := n.succ(lv)
		if marked {
			return false
		}
		if mk == nil {
			mk = newMarker(next)
		} else {
			mk.next[0].Store(next) // never published: reuse it
		}
		c.IncCAS()
		if n.next[lv].CompareAndSwap(next, mk) {
			return true
		}
	}
}

// Delete removes key, reporting whether this call removed it.
func (l *List) Delete(key uint64, c *stats.Op) bool {
	var preds, succs [MaxHeight]*node
	if !l.find(key, &preds, &succs, c) {
		return false
	}
	n := succs[0]
	// Mark from the top of the tower down to level 1.
	for lv := n.height - 1; lv >= 1; lv-- {
		n.mark(lv, c)
	}
	// Mark level 0: the linearization point; only one deleter wins.
	if !n.mark(0, c) {
		return false
	}
	l.length.Add(-1)
	l.find(key, &preds, &succs, c) // physical cleanup
	return true
}

// Contains reports whether key is present.
func (l *List) Contains(key uint64, c *stats.Op) bool {
	n, ok := l.seek(key, c)
	return ok && n.key == key
}

// Value returns the value stored under key.
func (l *List) Value(key uint64, c *stats.Op) (any, bool) {
	n, ok := l.seek(key, c)
	if !ok || n.key != key {
		return nil, false
	}
	cell := n.val.Load()
	if cell == nil {
		return nil, true
	}
	return cell.v, true
}

// seek walks without cleanup and returns the first unmarked node >= key.
func (l *List) seek(key uint64, c *stats.Op) (*node, bool) {
	pred := l.head
	for lv := MaxHeight - 1; lv >= 0; lv-- {
		curr, _ := pred.succ(lv)
		for curr.before(key) {
			c.Hop()
			pred = curr
			curr, _ = curr.succ(lv)
		}
	}
	// pred < key <= pred.next[0]; skip marked nodes rightward.
	curr, _ := pred.succ(0)
	for curr.sent == sentData {
		c.Hop()
		next, marked := curr.succ(0)
		if !marked {
			return curr, true
		}
		curr = next
	}
	return nil, false
}

// Predecessor returns the largest key <= x.
func (l *List) Predecessor(x uint64, c *stats.Op) (uint64, bool) {
	var preds, succs [MaxHeight]*node
	if l.find(x, &preds, &succs, c) {
		return x, true
	}
	if preds[0].sent == sentData {
		return preds[0].key, true
	}
	return 0, false
}

// Successor returns the smallest key >= x.
func (l *List) Successor(x uint64, c *stats.Op) (uint64, bool) {
	n, ok := l.seek(x, c)
	if !ok {
		return 0, false
	}
	return n.key, true
}

// Validate sweeps the quiescent list and checks sorted order per level and
// tower reachability. Only call while no operations are in flight.
func (l *List) Validate() error {
	count := 0
	for lv := 0; lv < MaxHeight; lv++ {
		prev := uint64(0)
		first := true
		n, _ := l.head.succ(lv)
		for n.sent == sentData {
			next, marked := n.succ(lv)
			if !marked {
				if !first && n.key <= prev {
					return fmt.Errorf("cskiplist: level %d out of order: %d after %d", lv, n.key, prev)
				}
				prev, first = n.key, false
				if lv == 0 {
					count++
				}
			}
			if next == nil || next.sent == sentMarker {
				return fmt.Errorf("cskiplist: level %d: %d links to a marker or nil", lv, n.key)
			}
			n = next
		}
	}
	if count != l.Len() {
		return fmt.Errorf("cskiplist: %d unmarked level-0 nodes but Len() = %d", count, l.Len())
	}
	return nil
}
