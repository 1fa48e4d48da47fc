package skiplist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"skiptrie/internal/stats"
)

// List is a truncated lock-free skiplist mapping uint64 keys to unboxed
// values of type V. It embeds the value-free Topology — which implements
// every navigation, deletion and repair algorithm of the paper — and adds
// the insert path plus value access. The set form is List[struct{}], whose
// value slots are zero-width.
type List[V any] struct {
	Topology

	// pool recycles dataNode allocations that were prepared by an
	// insert but never published: the insert lost its race to a
	// concurrent insert of the same key and returned Existing instead.
	// Under write contention on overlapping key sets this is the
	// allocation the GC would otherwise eat per lost race.
	//
	// Published nodes are deliberately NOT recycled — not on delete,
	// and not from the epoch-release sweep, even though the sweep
	// proves no pinned reader can still need the node's value. Proving
	// a node invisible is not proving it unreachable: live nodes hold
	// back pointers (written once, at insert and at markNode) that may
	// reference a retired node indefinitely as a recovery tombstone,
	// and searches recover through those pointers relying on the
	// retired node's key and frozen link word staying exactly what they
	// were. No grace period bounds that reachability, so reusing the
	// allocation would change a key out from under a future recovery —
	// the classic ABA corruption, here breaking search termination
	// (back pointers must strictly decrease). The GC is the only safe
	// reclaimer for published nodes; what the pool removes is the churn
	// from nodes that never entered the structure at all.
	pool sync.Pool
}

// newDataNode returns a dataNode ready for stamping: either a recycled
// never-published allocation (scrubbed by recycleDataNode) or a fresh
// one. The caller must set every header field it relies on — key,
// kind, origHeight, root, born, val, from — exactly as it would on a
// fresh allocation; nothing is inherited from a previous use.
func (l *List[V]) newDataNode() *dataNode[V] {
	if v := l.pool.Get(); v != nil {
		return v.(*dataNode[V])
	}
	return new(dataNode[V])
}

// recycleDataNode returns a node allocated by newDataNode to the pool.
// It must only be called on nodes that were never published: once the
// linking CAS has landed, concurrent operations hold references to the
// node forever (see the pool field comment). The scrub clears every
// reference the insert attempt wrote (the link word, the back pointer,
// the value), so a pooled node retains nothing; the epoch
// stamps and immutable-by-convention header fields are re-stamped in
// full by the next insert that draws it.
func (l *List[V]) recycleDataNode(dn *dataNode[V]) {
	var zero V
	dn.val = zero
	dn.from = 0
	dn.n.born = 0
	dn.n.next.Store(nil)
	dn.n.back.Store(nil)
	l.pool.Put(dn)
}

// New returns an empty list. Levels outside [2, MaxLevels] are clamped.
func New[V any](cfg Config) *List[V] {
	l := &List[V]{}
	l.Topology.init(cfg)
	return l
}

// Topo returns the list's value-free topology, the surface the x-fast
// trie indexes. All List[V] instantiations share the one Topology type.
func (l *List[V]) Topo() *Topology { return &l.Topology }

// dataNode is the allocation unit of a level-0 data node: the value-free
// topology header followed by the list's unboxed value slot. The header
// must stay the first field — value access converts the *Node interior
// pointer back to the containing *dataNode[V], which is only valid while
// the two share an address.
//
// The value is published by the link-word CAS that links the node into
// level 0 (a release store that every reader acquires through its own
// link-word loads), so the initial write needs no further synchronization.
// In-place updates (Map.Store on an existing key) cannot ride that
// publication; they are guarded by vmu, a word-sized spinlock. The
// critical section is a single value copy, readers and writers take it
// symmetrically, and the set form never touches it (zero-width values skip
// value access entirely), so the paper's structural operations remain
// lock-free; only key-value access on one key serializes with other value
// access to that same key — including reader-reader, so hot-key value
// reads do contend on this word. A seqlock would let readers scale, but
// its optimistic value copy is a data race under the Go memory model for
// arbitrary V (the race detector rejects it); the race-free lock-free
// alternative, immutable cells behind an atomic pointer, reallocates on
// every overwrite, which is the boxing cost this layout exists to remove.
type dataNode[V any] struct {
	n    Node
	vmu  atomic.Uint32 // value spinlock: 0 free, 1 held
	from uint64        // epoch val became current (guarded by vmu; init pre-publish)
	val  V
	// old holds superseded versions still selectable by a pinned epoch,
	// ascending by from (guarded by vmu). It is nil — and never touched —
	// unless a value was overwritten while a snapshot pin was live, so
	// the unpinned write path pays nothing beyond one atomic load.
	old []version[V]
}

// version is one superseded value: val was current from epoch from
// until the from of the next version (or dataNode.from for the last).
type version[V any] struct {
	from uint64
	val  V
}

// dataOf recovers the allocation containing a level-0 data node's header.
// n must be a data-kind root created by List[V].Insert/Upsert; sentinels,
// tower nodes above level 0, markers and descriptors are plain Nodes (or
// descNodes) and must never be passed.
func dataOf[V any](n *Node) *dataNode[V] {
	return (*dataNode[V])(unsafe.Pointer(n))
}

func (d *dataNode[V]) lock() {
	spins := 0
	for !d.vmu.CompareAndSwap(0, 1) {
		if spins++; spins%32 == 0 {
			runtime.Gosched()
		}
	}
}

func (d *dataNode[V]) unlock() { d.vmu.Store(0) }

// ValueOf returns the value stored at n's tower root. n may be any node of
// a tower created by this list (any level); sentinel nodes yield the zero
// value.
func (l *List[V]) ValueOf(n *Node) V {
	r := n.root
	if r == nil || r.kind != kindData {
		var zero V
		return zero
	}
	d := dataOf[V](r)
	if unsafe.Sizeof(d.val) == 0 {
		return d.val // set form: nothing to read, nothing to lock
	}
	d.lock()
	v := d.val
	d.unlock()
	return v
}

// SetValue overwrites the value stored at n's tower root. Sentinel nodes
// are ignored. While a snapshot pin is live the superseded value is
// pushed onto the node's version chain, stamped with the epoch it was
// current from, so pinned readers keep reading the value that was
// current at their epoch; versions no remaining pin can select are
// pruned on the next overwrite.
func (l *List[V]) SetValue(n *Node, v V) {
	r := n.root
	if r == nil || r.kind != kindData {
		return
	}
	d := dataOf[V](r)
	if unsafe.Sizeof(d.val) == 0 {
		return
	}
	// The epoch is sampled under both the value lock — so a delayed
	// writer cannot regress d.from below a newer writer's stamp and
	// silently drop that version from the chain — and the commit
	// counter, so a concurrently-registered pin is not handed out
	// until this stamp's write has landed (epoch.go).
	commit := l.commitEnter(r.key)
	d.lock()
	e := l.epoch.Load()
	if l.pinCount.Load() > 0 && d.from < e {
		d.old = append(d.old, version[V]{from: d.from, val: d.val})
	}
	d.val, d.from = v, e
	l.journalMark(r.key, e)
	if len(d.old) > 0 {
		// Prune unreachable versions: a pin P selects the last version
		// with from <= P, so everything before the last version at or
		// below the smallest pinned epoch is dead. The kept suffix is
		// slid to the front and the vacated slots zeroed, so pruned
		// values are actually released rather than kept alive by the
		// backing array.
		if min := l.minPin.Load(); min == noPin || d.from <= min {
			d.old = nil
		} else {
			j := 0
			for j+1 < len(d.old) && d.old[j+1].from <= min {
				j++
			}
			if j > 0 {
				kept := copy(d.old, d.old[j:])
				for i := kept; i < len(d.old); i++ {
					d.old[i] = version[V]{}
				}
				d.old = d.old[:kept]
			}
		}
	}
	d.unlock()
	commit.Add(-1)
}

// ValueAt returns the value that was current at epoch at for n's tower
// root: the current value if it was written at or before at, else the
// newest chained version written at or before at. Sentinel nodes yield
// the zero value. The caller is responsible for having checked
// VisibleAt(at) first.
func (l *List[V]) ValueAt(n *Node, at uint64) V {
	r := n.root
	if r == nil || r.kind != kindData {
		var zero V
		return zero
	}
	d := dataOf[V](r)
	if unsafe.Sizeof(d.val) == 0 {
		return d.val
	}
	d.lock()
	v := d.val
	if d.from > at {
		for i := len(d.old) - 1; i >= 0; i-- {
			if d.old[i].from <= at {
				v = d.old[i].val
				break
			}
		}
	}
	d.unlock()
	return v
}

// ValueStampAt is ValueAt plus the epoch the returned value became
// current — the stamp a diff compares against its window's low edge to
// decide whether a surviving node's value was overwritten inside the
// window. For the set form (zero-width V, never overwritten) the stamp
// is the node's born epoch. The caller is responsible for having
// checked VisibleAt(at) first.
func (l *List[V]) ValueStampAt(n *Node, at uint64) (V, uint64) {
	r := n.root
	if r == nil || r.kind != kindData {
		var zero V
		return zero, 0
	}
	d := dataOf[V](r)
	if unsafe.Sizeof(d.val) == 0 {
		return d.val, r.born
	}
	d.lock()
	v, from := d.val, d.from
	if d.from > at {
		for i := len(d.old) - 1; i >= 0; i-- {
			if d.old[i].from <= at {
				v, from = d.old[i].val, d.old[i].from
				break
			}
		}
	}
	d.unlock()
	return v, from
}

// InsertResult reports what Insert or Upsert did.
type InsertResult struct {
	Inserted bool
	Existing *Node // level-0 node of the already-present key, if any
	Root     *Node // level-0 node this call created, nil if already present
	Top      *Node // top-level node if the tower reached the top, else nil
}

// Insert adds key to the list, starting the descent from start (nil for
// head). If the drawn tower height reaches the top level, the node is also
// linked into the doubly-linked list (prev set via FixPrev) before Insert
// returns, per the paper's toplevelInsert. If the key is already present
// nothing is allocated and the existing level-0 node is reported.
func (l *List[V]) Insert(key uint64, val V, start *Node, c *stats.Op) InsertResult {
	return l.insertWithHeight(key, val, start, l.randomHeight(), false, nil, c)
}

// Upsert is Insert, except that when the key is already present the
// existing node's value is overwritten with val (still allocation-free).
func (l *List[V]) Upsert(key uint64, val V, start *Node, c *stats.Op) InsertResult {
	return l.insertWithHeight(key, val, start, l.randomHeight(), true, nil, c)
}

// insertWithHeight is Insert/Upsert with the tower height fixed by the
// caller; tests use it (via export_test.go) to construct deterministic
// shapes. A non-nil hint supplies (and receives back) per-level descent
// positions, the batched write path's amortization (hint.go).
func (l *List[V]) insertWithHeight(key uint64, val V, start *Node, h int, upsert bool, hint *Hint, c *stats.Op) InsertResult {
	var local [MaxLevels]*Node
	lefts := &local
	if hint != nil {
		lefts = &hint.lefts
	}
	br := l.descendResume(key, start, lefts, c)
	t := target{key: key}
	if br.Right.at(t) && br.Right.dead.Load() == 0 {
		// Already present and live: the fast path allocates nothing. A
		// dead node retained for a pinned epoch falls through instead:
		// the key is logically absent, and the new incarnation splices
		// in front of it (same-key runs stay newest-first).
		if upsert {
			l.SetValue(br.Right, val)
		}
		return InsertResult{Existing: br.Right}
	}
	dn := l.newDataNode()
	dn.val = val
	root := &dn.n
	root.key = key
	root.kind = kindData
	root.origHeight = int8(h)
	root.root = root
	for {
		// Stamp the born epoch (and the value's epoch) under the commit
		// counter: the sample and the publishing CAS must complete
		// before any concurrently-registered pin is handed out, or the
		// pinned view could include a key that observably did not exist
		// yet (epoch.go, "The commit counter"). Both stamps are
		// released by the CAS and acquired by any reader's link load.
		commit := l.commitEnter(key)
		root.born = l.epoch.Load()
		dn.from = root.born
		hook("insert.committing", root)
		root.next.Store(br.Right)
		root.back.Store(br.Left)
		c.IncCAS()
		ok := br.Left.casNext(br.Right, root)
		if ok {
			l.journalMark(key, root.born)
		}
		commit.Add(-1)
		if ok {
			break
		}
		br = l.search(t, br.Left, c)
		if br.Right.at(t) && br.Right.dead.Load() == 0 {
			if upsert {
				l.SetValue(br.Right, val)
			}
			// The prepared node was never published: recycle it.
			l.recycleDataNode(dn)
			return InsertResult{Existing: br.Right}
		}
	}
	l.length.Add(1)
	l.nodes.Add(1)

	// Raise the tower, each link conditioned on the root's stop flag
	// remaining unset (the paper's DCSS guard). Tower nodes above level 0
	// are plain headers: they carry no value slot. The whole tower is cut
	// from one slab — a single allocation instead of one per level — at
	// the cost of the slab staying reachable while any of its nodes is
	// (a constant-factor trade; towers are torn down level-by-level but
	// their nodes' lifetimes are already coupled through root pointers).
	// The raise descriptors come from a second, short-lived slab, one
	// per level: a descriptor is published at most once, since a
	// published one either links its level or fails only because the
	// stop flag is set, which ends the raise. An install CAS that lost
	// never published its descriptor, so the retry reuses it.
	curr := root
	var slab []Node
	var descs []descNode
	if h > 1 {
		slab = make([]Node, h-1)
		if l.useDCSS {
			descs = make([]descNode, h-1)
		}
	}
	for lv := 1; lv < h; lv++ {
		if root.stop.Load() {
			return InsertResult{Inserted: true, Root: root}
		}
		tn := &slab[lv-1]
		tn.key = key
		tn.kind = kindData
		tn.level = int8(lv)
		tn.origHeight = int8(h)
		tn.root = root
		tn.down = curr
		for {
			br := l.search(t, lefts[lv], c)
			if br.Right.at(t) {
				// A same-key node exists at this level (a racing
				// incarnation); cap our tower here.
				return InsertResult{Inserted: true, Root: root}
			}
			tn.next.Store(br.Right)
			tn.back.Store(br.Left)
			if lv == l.levels-1 {
				tn.prev.Store(br.Left) // initial guide; FixPrev corrects it
			}
			ok := false
			if l.useDCSS {
				c.IncDCSS()
				d := &descs[lv-1]
				d.n.kind, d.n.root = kindDesc, root
				d.old, d.new = br.Right, tn
				ok = br.Left.dcssNext(d)
			} else {
				c.IncCAS()
				ok = br.Left.casNext(br.Right, tn)
			}
			if ok {
				l.nodes.Add(1)
				curr = tn
				if !l.useDCSS && root.stop.Load() {
					// Without the DCSS guard the link can land after a
					// concurrent delete has already scanned this level
					// for the tower. Take the node down as that delete
					// would have; markNode arbitrates if it did see it.
					if l.markNode(tn, br.Left, c) {
						l.search(t, br.Left, c)
						l.nodes.Add(-1)
					}
					if lv == l.levels-1 {
						// The node was briefly a top-level member: repair
						// its successor's prev as a top-level delete
						// would, and report it so the caller's trie walk
						// disconnects it (xfast.InsertWalk).
						l.repairPrevAfterDelete(t, br.Left, c)
						return InsertResult{Inserted: true, Root: root, Top: tn}
					}
					return InsertResult{Inserted: true, Root: root}
				}
				break
			}
			if root.stop.Load() {
				return InsertResult{Inserted: true, Root: root}
			}
			lefts[lv] = br.Left
		}
	}
	if h == l.levels {
		// Reached the top: complete the doubly-linked insertion. Per
		// Section 3 the insert first sets its own prev (Algorithm 1), then
		// updates the prev pointer of its successor; the operation is not
		// complete until both are done (Lemma 3.1 depends on this).
		l.FixPrev(lefts[l.levels-1], curr, c)
		hook("insert.before-succ-repair", curr)
		if l.repair == RepairEager {
			l.makeReadyChain(curr, c)
		} else {
			l.repairSuccessorPrev(curr, c)
		}
		return InsertResult{Inserted: true, Root: root, Top: curr}
	}
	return InsertResult{Inserted: true, Root: root}
}
