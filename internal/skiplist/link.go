package skiplist

import (
	"sync/atomic"
	"unsafe"
)

// Link words.
//
// Every node has one link word, next, an atomic pointer. What it points
// at decides what it means:
//
//   - a head, data or tail node (or nil, for a tail): the node is
//     unmarked and that is its successor;
//   - a marker node (kindMarker): the node is logically deleted, and the
//     marker's own next holds the frozen successor. Marking is permanent:
//     no CAS ever expects a marker, so a marked word never changes again;
//   - a descriptor node (kindDesc): a tower raise is in flight on this
//     word (a restricted DCSS, below). Its logical value is the unmarked
//     successor it expects, until a reader helps it resolve.
//
// Markers and descriptors are never list members: they are only ever
// reached through the word they sit in, and every read of a word goes
// through succ, load or Marked, which decode them. No search result,
// bracket, iterator position, retained-node record or value access can
// therefore hold one.
//
// A CAS on a word compares the expected successor pointer itself, the
// paper's value-based guard "left is unmarked and left.next = right". ABA
// cannot make such a CAS act on a stale view. Go's garbage collector never
// reuses a node's address while a goroutine still references it, so an
// expected pointer always names the node that was observed. And nodes are
// never relinked: an insert publishes only a fresh node, and an unlink
// splices past a marked node to its frozen successor, which is still on
// the list. So a word that reads right again after changing (an insert
// between left and right, then that node's delete) still means "right
// follows left, and left is unmarked", which is all the CAS relies on.
// The objects reused across attempts — a data node prepared by an insert
// that lost its race (list.go), a marker or descriptor whose CAS failed —
// were never published.

// Witness is the raw link word a LoadSucc observed: the successor
// itself while the node is unmarked, its marker once it is marked. It is
// what SuccHolds compares against.
type Witness struct {
	word *Node
}

// descNode is the descriptor of a restricted DCSS (Harris, Fraser and
// Pratt) on one link word: swing the word from old to new iff the word
// holds old and the guard root.stop is unset at some instant while the
// descriptor owns the word. The guard reads a plain atomic flag, never a
// link word, so helping a descriptor never helps another one: helping
// depth is one here, and two from a dcss.Atom guard that reads a link
// word (SuccHolds). The header must stay the first field — a word holding
// &d.n is converted back to d by descOf.
type descNode struct {
	n     Node  // kind kindDesc; n.root is the tower root whose stop flag guards the swing
	old   *Node // expected unmarked successor
	new   *Node // tower node to link
	state atomic.Int32
}

// Descriptor states.
const (
	undecided int32 = iota
	succeeded
	failed
)

func descOf(n *Node) *descNode {
	return (*descNode)(unsafe.Pointer(n))
}

// help resolves the descriptor installed in word: the first helper to
// decide evaluates the guard (it necessarily ran while the descriptor
// owned the word — the word is only released after a decision), and the
// word is swung to new or back to old accordingly. Idempotent; any
// goroutine may call it.
func (d *descNode) help(word *Node) {
	s := d.state.Load()
	if s == undecided {
		s = failed
		if !d.n.root.stop.Load() {
			s = succeeded
		}
		if !d.state.CompareAndSwap(undecided, s) {
			s = d.state.Load()
		}
	}
	if s == succeeded {
		word.next.CompareAndSwap(&d.n, d.new)
	} else {
		word.next.CompareAndSwap(&d.n, d.old)
	}
}

// load returns n's link word, first helping any descriptor installed in
// it to resolve. The result is nil (tail), a list node or a marker.
func (n *Node) load() *Node {
	for {
		p := n.next.Load()
		if p == nil || p.kind != kindDesc {
			return p
		}
		descOf(p).help(n)
	}
}

// succ decodes n's link word into the paper's (next, marked) pair and
// the raw word observed.
func (n *Node) succ() (Succ, Witness) {
	p := n.next.Load()
	if p != nil && p.kind > kindTail {
		p = n.load()
		if p != nil && p.kind == kindMarker {
			return Succ{Next: p.next.Load(), Marked: true}, Witness{p}
		}
	}
	return Succ{Next: p}, Witness{p}
}

// casNext swings n's link word from old to new. If the word holds a
// descriptor that expects old, the descriptor is helped and the CAS
// retried, so a raise that is about to fail cannot block a CAS.
func (n *Node) casNext(old, new *Node) bool {
	for {
		if n.next.CompareAndSwap(old, new) {
			return true
		}
		p := n.next.Load()
		if p == nil || p.kind != kindDesc || descOf(p).old != old {
			return false
		}
		descOf(p).help(n)
	}
}

// dcssNext links d.new after n iff n's word holds d.old and d's guard
// holds while d owns the word (the paper's DCSS of a tower raise). d must
// not have been installed before; after a failed call it may be reused
// only if the guard cannot have been evaluated, that is, while its state
// is still undecided.
func (n *Node) dcssNext(d *descNode) bool {
	for !n.next.CompareAndSwap(d.old, &d.n) {
		p := n.next.Load()
		if p == nil || p.kind != kindDesc || descOf(p).old != d.old {
			return false
		}
		descOf(p).help(n)
	}
	d.help(n)
	return d.state.Load() == succeeded
}
