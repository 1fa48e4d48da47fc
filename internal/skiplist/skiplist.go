// Package skiplist implements the SkipTrie paper's truncated lock-free
// skiplist (Section 2) together with the doubly-linked list over its top
// level (Section 3).
//
// The skiplist has a fixed number of levels — O(log log u) of them, chosen
// by the universe width — rather than O(log m). Each key occupies a tower
// of nodes linked by down pointers; the level-0 node is the tower's root
// and carries the stop flag that freezes the tower when a delete begins
// (Section 2). Each node's next pointer and marked bit live in one atomic
// pointer word: the successor while the node is unmarked, a marker node
// holding the frozen successor once it is logically deleted (Harris-style
// deletion with the marker layout of Java's ConcurrentSkipListMap; see
// link.go). Tower raises, which the paper guards by DCSS, install a
// restricted-DCSS descriptor node in that same word. A back pointer, set
// before a node is marked, lets concurrent operations recover when a node
// is deleted from under their feet (Fomitchev-Ruppert).
//
// Top-level nodes additionally carry a prev pointer forming a doubly-linked
// list. Linearizability relies only on the forward direction; prev pointers
// are guides (Section 3). They are dcss.Atom cells set by FixPrev via
// DCSS, conditioned on the predecessor remaining unmarked and adjacent, so
// a prev pointer never targets a marked node. The ready flag records that a node's insertion
// into the doubly-linked list finished. Both repair disciplines discussed
// in the paper's introduction are implemented: the default relaxed mode
// (option 2, the paper's choice — transient backward gaps are tolerated and
// repaired by the in-flight insert) and the eager-helping mode (option 1 —
// an insert recursively helps its successors before declaring itself
// ready), selectable per list for the T8 ablation.
//
// The package is split along the value axis. Node and Topology are
// value-free: they carry only the paper's state (keys, towers, link
// words, back/prev pointers) and implement every navigation and repair
// algorithm, so code that only routes through the structure — notably the
// x-fast trie and its DCSS guards — compiles once, independent of any
// value type. List[V] embeds a Topology and adds the insert path, whose
// level-0 nodes are allocated with an inline, unboxed value slot of type V
// (see list.go). In set form (V = struct{}) the slot is zero-width.
package skiplist

import (
	"sync"
	"sync/atomic"

	"skiptrie/internal/dcss"
	"skiptrie/internal/stats"
)

// MaxLevels bounds the number of levels (universe width <= 64 gives
// ceil(log2 64)+1 = 7).
const MaxLevels = 8

// RepairMode selects how top-level prev pointers are maintained
// (Section 1's option (1) vs option (2)).
type RepairMode int8

const (
	// RepairRelaxed is the paper's choice: an insert fixes only its own
	// node's prev pointer; transient backward gaps are allowed and are
	// charged to the overlapping-interval contention.
	RepairRelaxed RepairMode = iota
	// RepairEager is the paper's option (1): before a top-level insert
	// completes it helps its successor chain become ready and re-points
	// each successor's prev, trading extra write contention for point
	// contention bounds.
	RepairEager
)

type kind int8

const (
	kindHead   kind = iota - 1 // sorts before every key
	kindData                   // an actual key
	kindTail                   // sorts after every key
	kindMarker                 // deletion marker inside a link word (link.go)
	kindDesc                   // raise descriptor inside a link word (link.go)
)

// Succ is a decoded link word, exactly the paper's (next, marked) pair.
type Succ struct {
	Next   *Node
	Marked bool
}

// Node is one level of one tower: the value-free topology header every
// layer above (the x-fast trie, the DCSS guards) operates on. Fields key,
// kind, level, origHeight, root and down are immutable after construction.
//
// Level-0 data nodes of a List[V] are allocated as dataNode[V] — this
// header followed by an unboxed value slot (list.go); sentinels and tower
// nodes above level 0 are plain Nodes and carry no value storage at all.
//
// Marker and descriptor nodes (link.go) reuse the header type so they can
// sit in a link word, but are never list members.
type Node struct {
	key        uint64
	kind       kind
	level      int8
	origHeight int8        // tower height drawn at insert time (levels occupied)
	stop       atomic.Bool // root-only: freezes tower raising (Section 2)
	ready      atomic.Bool // top-level-only: doubly-linked insertion finished
	root       *Node       // level-0 node of this tower (self at level 0)
	down       *Node       // next lower tower node; nil at level 0

	next atomic.Pointer[Node] // link word: successor, marker or descriptor (link.go)
	back atomic.Pointer[Node] // recovery hint; points to a strictly smaller node

	// root-only: born is the list epoch current when the node was
	// linked; written before the publishing CAS, so every reader that
	// reached the node through a link load observes it. dead is the
	// epoch a delete committed the node at (0 while alive): the
	// delete's linearization point is the CAS that sets it. Both are
	// meaningful on data roots only; see epoch.go for the pin protocol
	// they serve.
	born uint64
	dead atomic.Uint64

	// top-level-only:
	prev dcss.Atom[*Node] // backward guide pointer (Section 3)
}

// Key returns the node's key. Meaningful only for data nodes.
func (n *Node) Key() uint64 { return n.key }

// IsData reports whether the node carries a key (not a sentinel).
func (n *Node) IsData() bool { return n.kind == kindData }

// IsHead reports whether the node is a head sentinel.
func (n *Node) IsHead() bool { return n.kind == kindHead }

// IsTail reports whether the node is a tail sentinel.
func (n *Node) IsTail() bool { return n.kind == kindTail }

// Level returns the level this node lives on (0 = bottom).
func (n *Node) Level() int { return int(n.level) }

// Root returns the tower's level-0 node.
func (n *Node) Root() *Node { return n.root }

// Marked reports whether the node is logically deleted. A descriptor in
// the word needs no helping here: one is only ever installed over, and
// resolves to, an unmarked successor.
func (n *Node) Marked() bool {
	p := n.next.Load()
	return p != nil && p.kind == kindMarker
}

// BornEpoch returns the epoch the node's tower was linked at.
func (n *Node) BornEpoch() uint64 { return n.root.born }

// DeadEpoch returns the epoch a delete committed the node's tower at,
// or 0 while it is alive.
func (n *Node) DeadEpoch() uint64 { return n.root.dead.Load() }

// IsDead reports whether a delete has committed the node's tower. A
// dead node may remain physically linked (unmarked) while a pinned
// epoch can still see it; every live-view read must treat it as absent.
func (n *Node) IsDead() bool { return n.root.dead.Load() != 0 }

// VisibleAt reports whether the node's key was present at epoch p:
// linked at or before p and not yet dead at p. Sentinels are never
// visible.
func (n *Node) VisibleAt(p uint64) bool {
	if n.kind != kindData {
		return false
	}
	r := n.root
	if r.born > p {
		return false
	}
	d := r.dead.Load()
	return d == 0 || d > p
}

// LoadSucc returns the node's decoded (next, marked) word and a witness
// usable in guards, after helping any in-flight raise on the word.
func (n *Node) LoadSucc() (Succ, Witness) {
	return n.succ()
}

// SuccHolds reports whether the node's link word, after helping any
// in-flight raise on it, still holds the witnessed value: for an unmarked
// witness, that the node is still unmarked with the same successor — the
// building block of the paper's DCSS guards ("conditioned on the target
// remaining unmarked").
func (n *Node) SuccHolds(w Witness) bool {
	return n.load() == w.word
}

// Prev returns the node's backward guide pointer (top level only).
func (n *Node) Prev() *Node { return n.prev.Value() }

// Back returns the node's recovery pointer.
func (n *Node) Back() *Node { return n.back.Load() }

// Ready reports whether the node's doubly-linked insertion completed.
func (n *Node) Ready() bool { return n.ready.Load() }

// target identifies a search position: either a key or the tail sentinel.
type target struct {
	key  uint64
	tail bool
}

// before reports whether n sorts strictly before t.
func (n *Node) before(t target) bool {
	switch n.kind {
	case kindHead:
		return true
	case kindTail:
		return false
	default:
		return t.tail || n.key < t.key
	}
}

// at reports whether n sorts exactly at t.
func (n *Node) at(t target) bool {
	if t.tail {
		return n.kind == kindTail
	}
	return n.kind == kindData && n.key == t.key
}

// Topology is the value-free skeleton of a truncated lock-free skiplist:
// the level sentinels plus every navigation, deletion and repair algorithm
// of the paper. It is the surface the x-fast trie operates on; all List[V]
// instantiations share this one concrete type, so the trie (and anything
// else that only routes through the structure) compiles exactly once.
type Topology struct {
	levels  int
	useDCSS bool
	repair  RepairMode
	heads   [MaxLevels]*Node
	tails   [MaxLevels]*Node
	length  atomic.Int64
	nodes   atomic.Int64 // total live tower nodes, for space accounting

	// Striped tower-height RNG (rng.go): rngSeed is immutable after
	// init; rngCtr orders lazy stripe seeding; rng holds the padded
	// per-stripe xorshift states.
	rngSeed uint64
	rngCtr  atomic.Uint64
	rng     [rngStripes]rngStripe

	// Epoch clock and snapshot-pin registry (epoch.go). epoch starts at
	// 1 and is bumped only by PinEpoch; minPin caches the smallest
	// pinned epoch (noPin when none) so update paths decide retention
	// with one atomic load; pins (guarded by pinMu) refcounts each
	// pinned epoch; retired (guarded by retiredMu) holds dead level-0
	// nodes kept on the bottom list for pinned readers.
	epoch      atomic.Uint64
	minPin     atomic.Uint64
	pinCount   atomic.Int64
	committing [commitStripes]commitStripe // stamping ops mid-commit (see epoch.go)
	pinMu      sync.Mutex
	pins       map[uint64]int
	pinTimes   map[uint64]int64 // epoch -> monotonic ns of its first pin (pinMu)
	retiredMu  sync.Mutex
	retired    []*Node

	// trace is the optional lifecycle-event sink (Config.Trace); nil
	// disables every event at the cost of one branch per lifecycle
	// action. Point-operation hot paths never consult it.
	trace *stats.Trace

	// Change journal (journal.go): per-stripe segment chains of
	// (key, epoch) entries appended by stamping commits while pins are
	// live, the index that makes snapshot diffs O(changed keys).
	journal [journalStripes]jstripe
}

// Config configures a List.
type Config struct {
	// Levels is the number of skiplist levels (use uintbits.Levels).
	Levels int
	// DisableDCSS replaces every DCSS by a plain CAS (dropping the second
	// guard), the fallback the paper proves linearizable and lock-free.
	DisableDCSS bool
	// Repair selects the prev-pointer maintenance discipline.
	Repair RepairMode
	// Seed seeds tower-height randomness; 0 selects a fixed default.
	// Height draws come from striped per-goroutine generator states
	// (rng.go), so the seed fixes the drawn sequence — and therefore
	// the structure's shape — only for single-goroutine use; concurrent
	// writers interleave stripe state nondeterministically.
	Seed uint64
	// Trace, when non-nil, receives lifecycle events (pin
	// acquire/release, retained-node sweeps, journal truncation); see
	// stats.Trace for the callback contract.
	Trace *stats.Trace
}

// init builds the sentinel towers. Levels outside [2, MaxLevels] are
// clamped.
func (l *Topology) init(cfg Config) {
	lv := cfg.Levels
	if lv < 2 {
		lv = 2
	}
	if lv > MaxLevels {
		lv = MaxLevels
	}
	l.levels = lv
	l.useDCSS = !cfg.DisableDCSS
	l.repair = cfg.Repair
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5ee0_70_1e_5eed
	}
	l.rngSeed = seed
	l.trace = cfg.Trace
	l.epoch.Store(1)
	l.minPin.Store(noPin)
	for i := 0; i < lv; i++ {
		h := &Node{kind: kindHead, level: int8(i), origHeight: int8(lv)}
		t := &Node{kind: kindTail, level: int8(i), origHeight: int8(lv)}
		h.root, t.root = h, t
		if i > 0 {
			h.down = l.heads[i-1]
			t.down = l.tails[i-1]
		}
		h.next.Store(t)
		h.back.Store(h)
		t.back.Store(h)
		h.ready.Store(true)
		t.ready.Store(true)
		t.prev.Store(h)
		l.heads[i] = h
		l.tails[i] = t
	}
}

// Levels returns the number of levels.
func (l *Topology) Levels() int { return l.levels }

// Top returns the index of the top level.
func (l *Topology) Top() int { return l.levels - 1 }

// Head returns the top-level head sentinel (the fallback starting point
// for searches when the x-fast trie yields no better anchor).
func (l *Topology) Head() *Node { return l.heads[l.levels-1] }

// HeadAt returns the head sentinel of the given level.
func (l *Topology) HeadAt(level int) *Node { return l.heads[level] }

// TailAt returns the tail sentinel of the given level.
func (l *Topology) TailAt(level int) *Node { return l.tails[level] }

// Len returns the number of keys (approximate under concurrency).
func (l *Topology) Len() int { return int(l.length.Load()) }

// NodeCount returns the number of live tower nodes across all levels
// (approximate under concurrency), for the T6 space experiment.
func (l *Topology) NodeCount() int { return int(l.nodes.Load()) }

// Bracket is the result of a list search at one level: at witness time,
// Left was unmarked, Left.next was Right, Right was unmarked, and
// Left < target <= Right. LeftW and RightW witness the two link words
// (LeftW is Right itself). Left and Right are always list members, never
// markers or descriptors.
type Bracket struct {
	Left   *Node
	LeftW  Witness
	Right  *Node
	RightW Witness
}

// search is the paper's listSearch(x, start): walk level nodes from start,
// unlinking marked nodes it passes, and return a bracket around t. start
// may be marked or even past t; recovery uses back pointers (which always
// decrease strictly, so recovery terminates at the level head).
func (l *Topology) search(t target, start *Node, c *stats.Op) Bracket {
	left := start
	for {
		// Re-anchor: left must be unmarked and strictly before t.
		for !left.before(t) {
			left = left.back.Load()
			c.Hop()
		}
		ls, _ := left.succ()
		if ls.Marked {
			left = left.back.Load()
			c.Hop()
			continue
		}
		curr := ls.Next
	walk:
		for {
			c.Hop()
			cs, cw := curr.succ()
			if cs.Marked {
				// Unlink the marked node; on contention re-anchor.
				c.IncCAS()
				if !left.casNext(curr, cs.Next) {
					break walk
				}
				curr = cs.Next
				continue
			}
			if curr.before(t) {
				left, curr = curr, cs.Next
				continue
			}
			return Bracket{Left: left, LeftW: Witness{curr}, Right: curr, RightW: cw}
		}
	}
}

// SearchTop runs the paper's listSearch for key on the top level starting
// from start (nil means the head sentinel).
func (l *Topology) SearchTop(key uint64, start *Node, c *stats.Op) Bracket {
	if start == nil {
		start = l.Head()
	}
	return l.search(target{key: key}, start, c)
}

// searchTarget is SearchTop for an arbitrary target (including the tail).
func (l *Topology) searchTarget(t target, start *Node, c *stats.Op) Bracket {
	if start == nil {
		start = l.Head()
	}
	return l.search(t, start, c)
}

// descend runs the descending listSearch chain of the paper's skiplist
// traversal: starting from a top-level node (or head), locate the bracket
// of key on every level. It fills lefts[level] and returns the level-0
// bracket.
func (l *Topology) descend(key uint64, start *Node, lefts *[MaxLevels]*Node, c *stats.Op) Bracket {
	if start == nil {
		start = l.Head()
	}
	t := target{key: key}
	node := start
	var br Bracket
	for lv := l.levels - 1; lv >= 0; lv-- {
		br = l.search(t, node, c)
		lefts[lv] = br.Left
		if lv > 0 {
			node = br.Left.down
		}
	}
	return br
}

// PredecessorBracket descends from start (a top-level node with key <=
// target, typically produced by the x-fast trie, or nil for the head) and
// returns the level-0 bracket of key: Left is the strict predecessor,
// Right is the first node >= key.
func (l *Topology) PredecessorBracket(key uint64, start *Node, c *stats.Op) Bracket {
	var lefts [MaxLevels]*Node
	return l.descend(key, start, &lefts, c)
}

// LastBracket descends to the level-0 bracket of the tail: Left is the
// largest key in the list (or the head sentinel if empty).
func (l *Topology) LastBracket(start *Node, c *stats.Op) Bracket {
	if start == nil {
		start = l.Head()
	}
	t := target{tail: true}
	node := start
	var br Bracket
	for lv := l.levels - 1; lv >= 0; lv-- {
		br = l.search(t, node, c)
		if lv > 0 {
			node = br.Left.down
		}
	}
	return br
}

// FixPrev is the paper's Algorithm 1: repeatedly locate node's predecessor
// left on the top level and DCSS node.prev to it, conditioned on left
// remaining unmarked with left.next = node, until success or node is
// marked. In the default relaxed mode the node becomes ready on exit (its
// prev has been set, or the node is logically deleted and its prev no
// longer matters); in eager mode readiness is owned by makeReadyChain,
// whose option-1 semantics are "my successor's prev points back at me".
func (l *Topology) FixPrev(pred, node *Node, c *stats.Op) {
	var t target
	if node.kind == kindTail {
		t = target{tail: true}
	} else {
		t = target{key: node.key}
	}
	if pred == nil {
		pred = l.Head()
	}
	br := l.searchTarget(t, pred, c)
	for !node.Marked() {
		_, pw := node.prev.Load()
		if br.Right == node {
			if l.setPrev(node, pw, br.Left, br.LeftW, c) {
				if l.repair == RepairRelaxed {
					node.ready.Store(true)
				}
				return
			}
		}
		br = l.searchTarget(t, pred, c)
	}
	if l.repair == RepairRelaxed {
		node.ready.Store(true)
	}
}

// setPrev points node.prev at left, conditioned on left still being
// unmarked with its link word equal to lw (next = node): the guard of
// the paper's Algorithm 1. With DCSS the condition guards the swing. In
// the CAS fallback it is re-checked after the swing instead, and a false
// result sends the caller round again: a repair that interleaved with
// ours either wrote after our re-check, or made it fail, so the write a
// quiescent list keeps is one made while its condition held.
func (l *Topology) setPrev(node *Node, pw dcss.Witness[*Node], left *Node, lw Witness, c *stats.Op) bool {
	if l.useDCSS {
		c.IncDCSS()
		_, ok := node.prev.DCSS(pw, left, func() bool { return left.SuccHolds(lw) })
		return ok
	}
	c.IncCAS()
	_, ok := node.prev.CompareAndSwap(pw, left)
	return ok && left.SuccHolds(lw)
}

// makeReadyChain implements the eager-helping discipline (Section 1,
// option (1)): to declare node ready, first help its successor become
// ready, then point the successor's prev back at node. Helping only moves
// rightward, so there is no deadlock; the chain length is bounded by the
// number of concurrent unfinished inserts.
func (l *Topology) makeReadyChain(node *Node, c *stats.Op) {
	// Collect the chain of not-ready successors, then repair backwards.
	var chain [64]*Node
	n := 0
	cur := node
	for cur.kind == kindData && n < len(chain) {
		chain[n] = cur
		n++
		s, _ := cur.succ()
		next := s.Next
		if next == nil || next.ready.Load() {
			break
		}
		cur = next
	}
	for i := n - 1; i >= 0; i-- {
		u := chain[i]
		// Set u.next.prev = u, then u.ready.
		for {
			s, sw := u.succ()
			if s.Marked || s.Next == nil {
				break
			}
			v := s.Next
			_, pw := v.prev.Load()
			if v.prev.Value() == u {
				break
			}
			if l.setPrev(v, pw, u, sw, c) {
				break
			}
			if u.Marked() {
				break
			}
		}
		u.ready.Store(true)
	}
}

// DeleteResult reports what Delete did.
type DeleteResult struct {
	Deleted bool
	Root    *Node // the level-0 node this call logically deleted
	// Top is the top-level tower node, if the tower reached the top.
	// Since the dead-epoch CAS made teardown single-owner, only the
	// winning delete (Deleted=true) can carry it, but callers should
	// keep processing Top regardless of Deleted — the contract is "walk
	// whatever is reported", and a duplicate walk is harmless.
	Top *Node
}

// Delete removes key from the list, starting the descent from start (nil
// for head). It implements the paper's delete with an epoch-stamped
// commit: set the root's stop flag, CAS the root's dead epoch from 0 —
// the linearization point, making the winner the teardown's single
// owner — then mark and unlink tower nodes top-down and finally dispose
// of the root: marked and unlinked immediately when no pinned epoch can
// see it (the paper's physical removal, and the only path before the
// first snapshot is ever taken), or retained unmarked on the bottom
// list for pinned readers and reclaimed by the epoch-release sweep
// (epoch.go). For towers that reached the top level it also performs
// the paper's toplevelDelete duties: ensure the node was completely
// inserted first, and repair the successor's prev pointer afterwards.
func (l *Topology) Delete(key uint64, start *Node, c *stats.Op) DeleteResult {
	t := target{key: key}
	var lefts [MaxLevels]*Node
	br := l.descend(key, start, &lefts, c)
	if !br.Right.at(t) || br.Right.dead.Load() != 0 {
		// Absent, or already logically deleted and awaiting reclamation
		// (the newest node of a same-key run is the only live candidate).
		return DeleteResult{}
	}
	root := br.Right // level-0 node
	left0 := br.Left

	// Freeze the tower so inserts stop raising it (Section 2).
	root.stop.Store(true)
	hook("delete.after-stop", root)

	// Commit: stamp the dead epoch. This CAS is the linearization point
	// of the delete, and its winner solely owns the rest of the
	// teardown — a losing racer returns without touching the tower, so
	// the PR 2 orphaned-top-node window cannot recur. The epoch sample
	// and the CAS are bracketed by the commit counter so a concurrent
	// PinEpoch cannot return between them and hand out a pin this
	// stale stamp would incorrectly hide the node from (epoch.go).
	commit := l.commitEnter(key)
	dead := l.epoch.Load()
	hook("delete.committing", root)
	c.IncCAS()
	won := root.dead.CompareAndSwap(0, dead)
	if won {
		l.journalMark(key, dead)
	}
	commit.Add(-1)
	if !won {
		return DeleteResult{}
	}
	l.length.Add(-1)

	// Mark tower nodes top-down. Re-scan every level: a raise that
	// squeaked in before the stop flag is caught here because we only act
	// on nodes whose root is ours.
	var topNode *Node
	for lv := l.levels - 1; lv >= 1; lv-- {
		for {
			b := l.search(t, lefts[lv], c)
			lefts[lv] = b.Left
			if !b.Right.at(t) || b.Right.root != root {
				break
			}
			n := b.Right
			if lv == l.levels-1 {
				topNode = n
				// Paper, toplevelDelete: finish the node's doubly-linked
				// insertion before deleting it.
				if !n.ready.Load() {
					l.FixPrev(b.Left, n, c)
				}
			}
			if l.markNode(n, b.Left, c) {
				// Physically unlink via a cleanup search.
				l.search(t, b.Left, c)
				l.nodes.Add(-1)
			}
			break
		}
	}

	// Dispose of the root: immediate mark + unlink, or retention for
	// pinned epochs (see epoch.go for why the minPin check is race-free
	// against concurrent pins). After filing the node for retention,
	// re-check: if the last pin released between the decision and the
	// append, its sweep ran over a list that did not yet hold this
	// node, and nothing else would reclaim it until some future
	// release — sweep again ourselves.
	if l.minPin.Load() < dead {
		l.retiredMu.Lock()
		l.retired = append(l.retired, root)
		l.retiredMu.Unlock()
		if l.minPin.Load() >= dead {
			l.sweepRetired(c)
		}
	} else if l.markNode(root, left0, c) {
		l.nodes.Add(-1)
		l.search(t, left0, c)
	}

	if topNode != nil {
		l.repairPrevAfterDelete(t, lefts[l.levels-1], c)
	}
	return DeleteResult{Deleted: true, Root: root, Top: topNode}
}

// markNode sets n.back to the given hint and marks n — swings its link
// word onto a fresh marker holding the current successor — returning true
// if this call's CAS performed the marking.
func (l *Topology) markNode(n, backHint *Node, c *stats.Op) bool {
	var mk *Node
	for {
		s, _ := n.succ()
		if s.Marked {
			return false
		}
		hook("delete.before-mark", n)
		n.back.Store(backHint)
		if mk == nil {
			// Allocated once: a failed CAS never published it.
			mk = &Node{kind: kindMarker}
		}
		mk.next.Store(s.Next)
		c.IncCAS()
		if n.casNext(s.Next, mk) {
			return true
		}
	}
}

// repairSuccessorPrev points the prev of node's current successor back at
// node (the second half of a top-level insert). If node is deleted
// meanwhile, the deleting operation takes over the repair (Algorithm 2),
// so we simply stop.
func (l *Topology) repairSuccessorPrev(node *Node, c *stats.Op) {
	for {
		s, _ := node.succ()
		if s.Marked {
			return
		}
		z := s.Next
		var zt target
		if z.kind == kindTail {
			zt = target{tail: true}
		} else {
			zt = target{key: z.key}
		}
		br := l.searchTarget(zt, node, c)
		l.fixPrevOf(zt, z, br, c)
		if !z.Marked() {
			return
		}
	}
}

// repairPrevAfterDelete is the tail of the paper's Algorithm 2: after a
// top-level node is deleted, find its successor and fix that successor's
// prev so it no longer points behind the deleted node; retry if the
// successor itself got marked meanwhile.
func (l *Topology) repairPrevAfterDelete(t target, hint *Node, c *stats.Op) {
	for {
		br := l.searchTarget(t, hint, c)
		succ := br.Right
		var st target
		if succ.kind == kindTail {
			st = target{tail: true}
		} else {
			st = target{key: succ.key}
		}
		l.fixPrevOf(st, succ, br, c)
		if !succ.Marked() {
			return
		}
	}
}

// fixPrevOf is FixPrev when the caller already holds a bracket whose Right
// is the node.
func (l *Topology) fixPrevOf(t target, node *Node, br Bracket, c *stats.Op) {
	for !node.Marked() {
		_, pw := node.prev.Load()
		if br.Right == node {
			if l.setPrev(node, pw, br.Left, br.LeftW, c) {
				return
			}
		} else {
			return
		}
		br = l.searchTarget(t, br.Left, c)
	}
}

// Contains reports whether key is present, descending from start.
func (l *Topology) Contains(key uint64, start *Node, c *stats.Op) bool {
	_, ok := l.Find(key, start, c)
	return ok
}

// Find returns the live level-0 node holding key, if present (unmarked
// and undead at witness time). Dead nodes retained for pinned epochs
// are skipped: they sit behind any live incarnation in the same-key
// run, so the walk over the run terminates at the first key change.
func (l *Topology) Find(key uint64, start *Node, c *stats.Op) (*Node, bool) {
	br := l.PredecessorBracket(key, start, c)
	return l.FindVisible(br.Right, key, 0, c)
}

// FindVisible walks the same-key run starting at n (a bracket's Right)
// for a node holding exactly key that is visible at epoch at — or, when
// at is 0, live (unmarked with no dead stamp). Runs are newest-first
// and incarnations' [born, dead) intervals are disjoint, so at most one
// node qualifies.
func (l *Topology) FindVisible(n *Node, key uint64, at uint64, c *stats.Op) (*Node, bool) {
	t := target{key: key}
	for n.at(t) {
		if admitted(n, at) {
			return n, true
		}
		s, _ := n.succ()
		n = s.Next
		c.Hop()
	}
	return nil, false
}

// admitted reports whether the view at epoch at (0 = live) includes
// the level-0 data node n: unmarked and alive for the live view,
// visible at the pinned epoch for a snapshot view (a marked node is
// never visible to any live pin — it was reclaimed only once no pin
// could see it).
func admitted(n *Node, at uint64) bool {
	if n.kind != kindData || n.Marked() {
		return false
	}
	if at != 0 {
		return n.VisibleAt(at)
	}
	return n.dead.Load() == 0
}

// NextVisible walks forward from n (a bracket's Right) to the first
// data node the view at epoch at admits (0 = live), reporting false at
// the tail. Marked nodes are traversed through their frozen succ
// chains; out-of-view retained nodes are stepped over in place.
func (l *Topology) NextVisible(n *Node, at uint64, c *stats.Op) (*Node, bool) {
	for {
		if n.kind == kindTail {
			return nil, false
		}
		if admitted(n, at) {
			return n, true
		}
		s, _ := n.succ()
		c.Hop()
		n = s.Next
	}
}

// PrevVisible retreats from n (a bracket's Left, unmarked at witness
// time) to the nearest data node at or before it that the view at
// epoch at admits (0 = live), reporting false at the head. A search's
// Left rests on the *oldest* incarnation of a same-key run, so when
// that node is out of view the run is re-probed from its head — the
// incarnation the view admits, if any, sits in front — before the key
// is given up on. The bottom list is singly linked, so each rejected
// key costs one predecessor re-search; retained runs are bounded by
// the churn during the lifetime of the pins retaining them.
func (l *Topology) PrevVisible(n *Node, at uint64, c *stats.Op) (*Node, bool) {
	for {
		if n.kind != kindData {
			return nil, false
		}
		if admitted(n, at) {
			return n, true
		}
		// Re-probe locally: a level-0 search anchored at n re-anchors
		// through back pointers, avoiding the full head descent a
		// PredecessorBracket would pay per rejected key.
		br := l.search(target{key: n.key}, n, c)
		if m, ok := l.FindVisible(br.Right, n.key, at, c); ok {
			return m, true
		}
		n = br.Left
	}
}

// NextLive and PrevLive are the live-view (at = 0) forms, the shape
// the point-query paths use.
func (l *Topology) NextLive(n *Node, c *stats.Op) (*Node, bool) { return l.NextVisible(n, 0, c) }
func (l *Topology) PrevLive(n *Node, c *stats.Op) (*Node, bool) { return l.PrevVisible(n, 0, c) }
