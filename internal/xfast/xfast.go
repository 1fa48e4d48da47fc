// Package xfast implements the SkipTrie paper's lock-free concurrent
// x-fast trie (Section 4), to our knowledge the first concurrent x-fast
// trie construction in the literature.
//
// The trie is a hash table (split-ordered, see internal/splitorder)
// mapping every proper prefix of every top-level skiplist key to a trie
// node. Unlike the sequential x-fast trie, every trie node — binary or
// unary — stores a pair of pointers into the top level of the skiplist:
// pointers[0] targets the largest key of the prefix's 0-subtree and
// pointers[1] the smallest key of its 1-subtree. The paper's reason is
// recovery: without pointers in binary nodes, a query whose lower subtree
// is concurrently emptied would be left stranded with no pointer into the
// list (Section 4, opening).
//
// The two pointers live in a single atomic value (the paper's "double-wide"
// field), so the (null, null) tombstone test of Algorithms 6/7 is atomic,
// and a tombstoned trie node can never be revived: every pointer swing is
// witnessed against a non-tombstone pair.
//
// Writes follow the paper exactly:
//   - insert walks prefixes longest-first (Algorithm 6), creating missing
//     nodes, helping delete tombstoned ones, and swinging pointers outward
//     via DCSS conditioned on the new target remaining unmarked;
//   - delete walks prefixes shortest-first (Algorithm 7), swinging
//     pointers off the deleted node onto its still-adjacent unmarked
//     neighbours (witnessed by listSearch), nulling pointers whose subtree
//     emptied, and removing (null, null) nodes from the hash table with
//     compareAndDelete.
package xfast

import (
	"fmt"

	"skiptrie/internal/dcss"
	"skiptrie/internal/skiplist"
	"skiptrie/internal/splitorder"
	"skiptrie/internal/stats"
	"skiptrie/internal/uintbits"
)

// Pair is a trie node's double-wide pointer field: the largest top-level
// key of the 0-subtree and the smallest of the 1-subtree. A nil pointer
// means "that subtree is empty (except possibly for in-flight inserts)";
// the (nil, nil) pair is the tombstone of a node slated for removal from
// the hash table.
type Pair struct {
	Zero *skiplist.Node
	One  *skiplist.Node
}

// Get returns the pointer for direction d.
func (p Pair) Get(d uint8) *skiplist.Node {
	if d == 0 {
		return p.Zero
	}
	return p.One
}

// With returns a copy of p with direction d replaced by n.
func (p Pair) With(d uint8, n *skiplist.Node) Pair {
	if d == 0 {
		p.Zero = n
	} else {
		p.One = n
	}
	return p
}

// IsTombstone reports whether both subtree pointers are nil.
func (p Pair) IsTombstone() bool { return p.Zero == nil && p.One == nil }

// treeNode is one trie node; its only mutable state is the pointer pair,
// exactly as in the paper ("a tree node n has a single field, n.pointers").
type treeNode struct {
	pointers dcss.Atom[Pair]
}

// Trie is a lock-free x-fast trie over the top level of a truncated
// skiplist.
type Trie struct {
	width    uint8 // W = log u
	list     *skiplist.Topology
	prefixes *splitorder.Map[*treeNode]
	useDCSS  bool
}

// Config configures a Trie.
type Config struct {
	// Width is the universe width W = log u, in [1, 64].
	Width uint8
	// List is the value-free topology of the skiplist whose top level the
	// trie indexes (List[V].Topo()); the trie itself is value-agnostic and
	// compiles once for every List[V] instantiation.
	List *skiplist.Topology
	// DisableDCSS replaces every DCSS by plain CAS (drops the second
	// guard), the fallback the paper proves remains linearizable.
	DisableDCSS bool
}

// New returns an empty trie.
func New(cfg Config) *Trie {
	w := cfg.Width
	if w < 1 {
		w = 1
	}
	if w > uintbits.MaxWidth {
		w = uintbits.MaxWidth
	}
	return &Trie{
		width:    w,
		list:     cfg.List,
		prefixes: splitorder.New[*treeNode](),
		useDCSS:  !cfg.DisableDCSS,
	}
}

// Width returns the universe width.
func (t *Trie) Width() uint8 { return t.width }

// PrefixCount returns the number of trie nodes currently in the hash
// table (for space accounting, experiment T6).
func (t *Trie) PrefixCount() int { return t.prefixes.Len() }

// Buckets returns the hash table's bucket count (for space accounting).
func (t *Trie) Buckets() int { return t.prefixes.Buckets() }

func (t *Trie) lookup(p uintbits.Prefix, c *stats.Op) (*treeNode, bool) {
	c.Probe()
	return t.prefixes.Lookup(p.Encode())
}

// LowestAncestor is the paper's Algorithm 3: binary search on prefix
// length for the longest prefix of key present in the trie, remembering
// the best (closest-keyed) list pointer seen. It returns a top-level
// skiplist node, or the head sentinel if the search saw no usable pointer.
//
// Like the paper's version the search is only advisory under concurrency:
// the returned node may be marked or on the wrong side of key;
// xFastTriePred (Pred) walks back/prev pointers afterwards.
func (t *Trie) LowestAncestor(key uint64, c *stats.Op) *skiplist.Node {
	best := t.list.Head()
	haveBest := false
	bestDist := ^uint64(0)

	// consider examines both subtree pointers of a found trie node. The
	// pointer on the key's own side is a guide into the containing subtree;
	// the pointer on the opposite side of the lowest ancestor is exactly
	// the predecessor (or successor) — tracking the closest of all of them
	// is the paper's "best pointer seen so far" and is what bounds the
	// list cost after the binary search.
	consider := func(tn *treeNode, depth uint8) {
		pair := tn.pointers.Value()
		prefix := uintbits.PrefixOf(key, depth, t.width)
		for b := uint8(0); b <= 1; b++ {
			cand := pair.Get(b)
			if cand == nil || !cand.IsData() {
				continue
			}
			// Paper line 11: the candidate must actually lie under the
			// queried prefix's b-subtree (stale pointers may escape it
			// transiently).
			if !prefix.Child(b).IsPrefixOfKey(cand.Key(), t.width) {
				continue
			}
			if dist := uintbits.Dist(key, cand.Key()); !haveBest || dist <= bestDist {
				best, haveBest, bestDist = cand, true, dist
			}
		}
	}

	var deepest *treeNode
	var deepestLen uint8
	haveDeepest := false

	// Paper line 4: the root prefix ε.
	if tn, ok := t.lookup(uintbits.Prefix{}, c); ok {
		consider(tn, 0)
		deepest, deepestLen, haveDeepest = tn, 0, true
	}
	// Binary search over proper prefix lengths [1, W-1].
	lo, hi := uint8(0), t.width-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		q := uintbits.PrefixOf(key, mid, t.width)
		tn, ok := t.lookup(q, c)
		if ok {
			consider(tn, mid)
			deepest, deepestLen, haveDeepest = tn, mid, true
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if haveBest && bestDist == 0 {
		return best // the key itself is a top-level node
	}
	// Sequential x-fast rule: at the lowest ancestor, the subtree on the
	// key's side is empty, so the pointer on the opposite side is exactly
	// the predecessor (key's bit = 1) or successor (key's bit = 0) among
	// top-level keys — Willard's invariant, which bounds the list walk
	// after the binary search to O(1) in the absence of contention. Under
	// concurrent churn the pointer can be stale; then we fall back to the
	// closest pointer seen during the search, whose extra list cost the
	// paper charges to the overlapping-interval contention (Lemma 4.2).
	if haveDeepest {
		sib := 1 - uintbits.Bit(key, deepestLen, t.width)
		pair := deepest.pointers.Value()
		if cand := pair.Get(sib); cand != nil && cand.IsData() &&
			uintbits.PrefixOf(key, deepestLen, t.width).Child(sib).IsPrefixOfKey(cand.Key(), t.width) {
			return cand
		}
	}
	return best
}

// Pred is the paper's Algorithm 4 (xFastTriePred): locate the lowest
// ancestor's list pointer, then walk back pointers (of marked nodes) and
// prev pointers (of unmarked ones) until reaching a top-level node whose
// key is at most key — strictly less than key when strict is set. The
// result may be the head sentinel.
func (t *Trie) Pred(key uint64, strict bool, c *stats.Op) *skiplist.Node {
	curr := t.LowestAncestor(key, c)
	for curr.IsData() {
		if curr.Key() < key || (!strict && curr.Key() == key) {
			break
		}
		c.Hop()
		if curr.Marked() {
			curr = curr.Back()
		} else {
			curr = curr.Prev()
		}
	}
	return curr
}

// InsertWalk is lines 5-19 of the paper's Algorithm 6: after node reached
// the skiplist's top level, walk its proper prefixes longest-first and make
// each trie level reflect it. The walk stops early if node gets marked.
func (t *Trie) InsertWalk(node *skiplist.Node, c *stats.Op) {
	t.insertWalk(node, c)
	if !t.useDCSS && node.Marked() {
		// In the CAS fallback a raise can link its top node after a
		// concurrent delete scanned the top level; the insert then
		// marks the node itself (skiplist raise cleanup), and no delete
		// will walk it out of the trie. A duplicate walk is harmless.
		t.DeleteWalk(node.Key(), node, nil, c)
	}
}

func (t *Trie) insertWalk(node *skiplist.Node, c *stats.Op) {
	key := node.Key()
	for l := int(t.width) - 1; l >= 0; l-- {
		p := uintbits.PrefixOf(key, uint8(l), t.width)
		d := uintbits.Bit(key, uint8(l), t.width)
		c.TrieLevel()
		for !node.Marked() {
			tn, ok := t.lookup(p, c)
			if !ok {
				// Create the trie level for this prefix.
				ntn := &treeNode{}
				ntn.pointers.Store(Pair{}.With(d, node))
				c.Probe()
				if t.prefixes.Insert(p.Encode(), ntn) {
					// Re-check the mark now that the level is visible: a
					// deleter that marked node between the loop's check
					// and our insert has a shortest-first walk that may
					// already be past this prefix, which would leave it
					// stale forever. Disconnecting it ourselves is safe
					// either way — deleteLevel is a no-op once the
					// pointer no longer targets node.
					if node.Marked() {
						t.deleteLevel(key, node, nil, l, c)
					}
					break // crossed this level
				}
				continue // lost the race; retry the level
			}
			pair, w := tn.pointers.Load()
			if pair.IsTombstone() {
				// Slated for deletion: help remove it, then retry.
				c.Probe()
				t.prefixes.CompareAndDelete(p.Encode(), tn)
				continue
			}
			cur := pair.Get(d)
			if cur != nil && cur.IsData() && cur.Marked() {
				// The target is being walked out of the trie by its
				// delete: help that walk at this level, then judge
				// afresh. Deferring to it could lose node's prefix —
				// the walk re-points the pointer at a neighbour found
				// by a search that may predate node (or nulls it), and
				// a dead incarnation of node's own key is replaced by
				// its strict neighbour. Bypassing it could skip a live
				// key between the two. The helping search runs after
				// node is linked, so it sees node or a better target.
				t.deleteLevel(cur.Key(), cur, nil, l, c)
				continue
			}
			if cur != nil && cur.IsData() &&
				((d == 0 && cur.Key() >= key) || (d == 1 && cur.Key() <= key)) {
				break // node is adequately represented at this level
			}
			// Swing the pointer outward to node, conditioned on node
			// remaining unmarked with unchanged succ (paper line 19).
			s, sw := node.LoadSucc()
			if s.Marked {
				return
			}
			if t.swing(tn, w, pair.With(d, node), node, sw, l, c) {
				break
			}
		}
	}
}

// swing performs the guarded pointer update of trie level l: DCSS
// conditioned on guardNode (the new target) still holding the witnessed
// link word (hence unmarked), or a plain CAS in the fallback mode.
func (t *Trie) swing(tn *treeNode, w dcss.Witness[Pair], newPair Pair,
	guardNode *skiplist.Node, guardW skiplist.Witness, l int, c *stats.Op) bool {
	if t.useDCSS {
		c.IncDCSS()
		_, ok := tn.pointers.DCSS(w, newPair, func() bool { return guardNode.SuccHolds(guardW) })
		return ok
	}
	c.IncCAS()
	_, ok := tn.pointers.CompareAndSwap(w, newPair)
	if ok && guardNode.Marked() {
		// Unguarded, the swing may have landed after the target was
		// marked and after its delete walk passed this level, which
		// would leave the pointer stale forever: disconnect it here.
		// If the target was still unmarked after the swing, its delete
		// walk comes later and sees the pointer.
		t.deleteLevel(guardNode.Key(), guardNode, nil, l, c)
	}
	return ok
}

// DeleteWalk is lines 5-22 of the paper's Algorithm 7: after node (a
// top-level skiplist node holding key) has been deleted from the skiplist,
// walk its proper prefixes shortest-first and disconnect it from the trie:
// swing each pointer still targeting node onto the neighbour returned by a
// top-level listSearch, null pointers whose subtree has emptied, and
// remove tombstoned trie nodes from the hash table. hint seeds the
// top-level searches (nil for the head).
func (t *Trie) DeleteWalk(key uint64, node *skiplist.Node, hint *skiplist.Node, c *stats.Op) {
	left := hint
	for l := 0; l < int(t.width); l++ {
		left = t.deleteLevel(key, node, left, l, c)
	}
}

// deleteLevel disconnects node from the trie level holding the length-l
// prefix of key: one iteration of DeleteWalk, also used by InsertWalk to
// clean up a level it created for a concurrently deleted node. left
// seeds the top-level searches (nil for the head); the updated hint is
// returned.
func (t *Trie) deleteLevel(key uint64, node *skiplist.Node, left *skiplist.Node, l int, c *stats.Op) *skiplist.Node {
	p := uintbits.PrefixOf(key, uint8(l), t.width)
	d := uintbits.Bit(key, uint8(l), t.width)
	c.TrieLevel()
	tn, ok := t.lookup(p, c)
	if !ok {
		return left
	}
	pair, w := tn.pointers.Load()
	for pair.Get(d) == node {
		br := t.list.SearchTop(key, left, c)
		left = br.Left
		child := p.Child(d)
		if d == 0 {
			// New candidate for "largest in the 0-subtree" is the
			// deleted key's left neighbour.
			if br.Left.IsData() && child.IsPrefixOfKey(br.Left.Key(), t.width) {
				t.swing(tn, w, pair.With(0, br.Left), br.Left, br.LeftW, l, c)
			} else {
				// The bracket proves the 0-subtree emptied (DESIGN.md):
				// null the pointer (paper line 20).
				c.IncCAS()
				tn.pointers.CompareAndSwap(w, pair.With(0, nil))
			}
		} else {
			// New candidate for "smallest in the 1-subtree" is the
			// deleted key's right neighbour.
			if br.Right.IsData() && child.IsPrefixOfKey(br.Right.Key(), t.width) {
				// Paper's makeDone(left, right): complete the
				// successor's backward link before publishing it.
				t.list.FixPrev(br.Left, br.Right, c)
				t.swing(tn, w, pair.With(1, br.Right), br.Right, br.RightW, l, c)
			} else {
				c.IncCAS()
				tn.pointers.CompareAndSwap(w, pair.With(1, nil))
			}
		}
		pair, w = tn.pointers.Load()
	}
	// Even if another operation moved the pointer first, help null a
	// pointer that escaped its subtree (paper line 19-20 applies to the
	// current value, not only to ours).
	if cur := pair.Get(d); cur != nil {
		stale := !cur.IsData() || !p.Child(d).IsPrefixOfKey(cur.Key(), t.width)
		if stale {
			c.IncCAS()
			if nw, ok := tn.pointers.CompareAndSwap(w, pair.With(d, nil)); ok {
				pair, w = pair.With(d, nil), nw
			} else {
				pair, w = tn.pointers.Load()
			}
		}
	}
	if pair.IsTombstone() {
		// The whole prefix emptied: remove its node from the table
		// (paper lines 21-22), keyed on identity so a newer incarnation
		// is never harmed.
		c.Probe()
		t.prefixes.CompareAndDelete(p.Encode(), tn)
	}
	return left
}

// Validate sweeps the quiescent trie and verifies it exactly mirrors the
// skiplist's top level: every proper prefix of every top-level key is
// present, pointers[0]/pointers[1] are the largest/smallest top-level keys
// of the respective subtrees, and no stale prefixes remain. It must only
// be called while no operations are in flight.
func (t *Trie) Validate() error {
	// Collect top-level keys.
	var tops []uint64
	n := t.list.Head()
	for {
		s, _ := n.LoadSucc()
		if n.IsData() && !s.Marked {
			tops = append(tops, n.Key())
		}
		if s.Next == nil {
			break
		}
		n = s.Next
	}
	type bound struct {
		max0, min1 uint64
		has0, has1 bool
	}
	want := make(map[uint64]*bound)
	for _, k := range tops {
		for l := 0; l < int(t.width); l++ {
			p := uintbits.PrefixOf(k, uint8(l), t.width)
			d := uintbits.Bit(k, uint8(l), t.width)
			b := want[p.Encode()]
			if b == nil {
				b = &bound{}
				want[p.Encode()] = b
			}
			if d == 0 {
				if !b.has0 || k > b.max0 {
					b.max0, b.has0 = k, true
				}
			} else {
				if !b.has1 || k < b.min1 {
					b.min1, b.has1 = k, true
				}
			}
		}
	}
	seen := 0
	var err error
	t.prefixes.Range(func(enc uint64, tn *treeNode) bool {
		b, ok := want[enc]
		if !ok {
			pair := tn.pointers.Value()
			desc := func(n *skiplist.Node) string {
				if n == nil {
					return "nil"
				}
				return fmt.Sprintf("key=%d marked=%v", n.Key(), n.Marked())
			}
			err = fmt.Errorf("trie holds stale prefix %x (zero: %s, one: %s)",
				enc, desc(pair.Zero), desc(pair.One))
			return false
		}
		seen++
		pair := tn.pointers.Value()
		if b.has0 != (pair.Zero != nil) {
			err = fmt.Errorf("prefix %x: 0-pointer presence = %v, want %v", enc, pair.Zero != nil, b.has0)
			return false
		}
		if b.has1 != (pair.One != nil) {
			err = fmt.Errorf("prefix %x: 1-pointer presence = %v, want %v", enc, pair.One != nil, b.has1)
			return false
		}
		if b.has0 && (pair.Zero.Marked() || pair.Zero.Key() != b.max0) {
			err = fmt.Errorf("prefix %x: 0-pointer key = %d (marked=%v), want %d", enc, pair.Zero.Key(), pair.Zero.Marked(), b.max0)
			return false
		}
		if b.has1 && (pair.One.Marked() || pair.One.Key() != b.min1) {
			err = fmt.Errorf("prefix %x: 1-pointer key = %d (marked=%v), want %d", enc, pair.One.Key(), pair.One.Marked(), b.min1)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if seen != len(want) {
		return fmt.Errorf("trie holds %d prefixes, want %d", seen, len(want))
	}
	return nil
}
