// Package dcss provides the atomic primitives the SkipTrie paper assumes:
// single-word CAS and double-compare single-swap (DCSS), over mutable cells
// called Atoms.
//
// DCSS(X, oldX, newX, Y, oldY) sets X to newX iff X = oldX and Y = oldY,
// atomically. No such hardware primitive exists, so — as the paper suggests
// for software fallback — we emulate it with the restricted DCSS construction
// of Harris, Fraser and Pratt (2002): a descriptor is installed into X by
// CAS, the guard on Y is evaluated while the descriptor owns X, and the
// descriptor is then resolved to either newX or oldX. Any reader that
// encounters a descriptor helps complete it first, so the emulation is
// lock-free.
//
// # Users
//
// Atoms remain only where the paper's guards need a general DCSS: the
// skiplist's top-level prev guides (set by FixPrev, guarded on the
// predecessor's link word) and the x-fast trie's double-wide pointer
// pairs (swung guarded on the new target's link word). The list links —
// the split-ordered hash table and every skiplist level — are plain
// atomic pointers with marker-node deletion, and the skiplist's tower
// raises use a restricted DCSS of their own on those words
// (internal/skiplist/link.go).
//
// # Witnesses instead of values
//
// An Atom's Load returns the value together with an opaque Witness; CAS and
// DCSS take a Witness rather than an expected value. A CAS succeeds only if
// the Atom still holds the exact cell that was loaded, which is strictly
// stronger than value equality and therefore immune to ABA (Go's garbage
// collector guarantees cell addresses are not reused while reachable).
// The remaining users decide each update from a view (a bracket, a
// subtree test) that a round trip of the value (A, then B, then A again)
// would make stale without changing the value; a witnessed CAS refuses
// to act on such a view, where a value CAS could not tell.
// A witness mismatch merely forces a retry, which the paper's analysis
// already accounts for (it proves the structure remains linearizable and
// lock-free even when DCSS degrades to CAS).
//
// # Guard discipline
//
// Guards must be side-effect-free and must not — directly or through
// helping — read the Atom the DCSS targets, or descriptor helping could
// recurse forever. In this codebase every guard reads one skiplist link
// word (Node.SuccHolds), whose only descriptors are tower raises guarded
// by a plain atomic flag (the tower's stop flag), so helping depth is
// bounded by two.
package dcss

import "sync/atomic"

// Atom is a mutable cell of type T supporting Load, CompareAndSwap and
// DCSS. The zero Atom holds the zero value of T. Atoms must not be copied
// after first use.
type Atom[T any] struct {
	p atomic.Pointer[cell[T]]
}

// Witness is an opaque token identifying a value previously observed in an
// Atom. The zero Witness corresponds to the zero value of a never-written
// Atom.
type Witness[T any] struct {
	c *cell[T]
}

// cell is either a plain value (d == nil) or an installed DCSS descriptor
// placeholder (d != nil; val is unused).
type cell[T any] struct {
	val T
	d   *desc[T]
}

type desc[T any] struct {
	a     *Atom[T]
	self  *cell[T] // the placeholder cell installed in a
	old   *cell[T] // cell to restore on failure
	newc  *cell[T] // cell to install on success
	guard func() bool
	state atomic.Int32
}

const (
	undecided int32 = iota
	succeeded
	failed
)

// Load returns the Atom's current value and a Witness for it, helping any
// in-flight DCSS to complete first.
func (a *Atom[T]) Load() (T, Witness[T]) {
	for {
		c := a.p.Load()
		if c == nil {
			var zero T
			return zero, Witness[T]{}
		}
		if c.d != nil {
			c.d.help()
			continue
		}
		return c.val, Witness[T]{c}
	}
}

// Value returns the Atom's current value, discarding the witness.
func (a *Atom[T]) Value() T {
	v, _ := a.Load()
	return v
}

// Store unconditionally replaces the Atom's value. It must only be used
// before the Atom is shared (initialization); using it on a shared Atom can
// clobber an in-flight DCSS descriptor.
func (a *Atom[T]) Store(v T) {
	a.p.Store(&cell[T]{val: v})
}

// CompareAndSwap installs new iff the Atom still holds the witnessed cell.
// On success it returns a Witness for the new value. If a DCSS descriptor
// is installed over the witnessed cell, it is helped to completion and the
// CAS retried, so a failed DCSS cannot permanently block a CAS.
func (a *Atom[T]) CompareAndSwap(w Witness[T], new T) (Witness[T], bool) {
	nc := &cell[T]{val: new}
	for {
		if a.p.CompareAndSwap(w.c, nc) {
			return Witness[T]{nc}, true
		}
		c := a.p.Load()
		if c != nil && c.d != nil && c.d.old == w.c {
			c.d.help()
			continue
		}
		return Witness[T]{}, false
	}
}

// DCSS installs new iff the Atom still holds the witnessed cell AND guard()
// observes true at some instant while the Atom is owned by the operation's
// descriptor. This matches the paper's DCSS(X, oldX, newX, Y, oldY) with
// guard capturing "Y = oldY". On success it returns a Witness for the new
// value.
func (a *Atom[T]) DCSS(w Witness[T], new T, guard func() bool) (Witness[T], bool) {
	d := &desc[T]{
		a:     a,
		old:   w.c,
		newc:  &cell[T]{val: new},
		guard: guard,
	}
	d.self = &cell[T]{d: d}
	for {
		if a.p.CompareAndSwap(w.c, d.self) {
			break
		}
		c := a.p.Load()
		if c != nil && c.d != nil && c.d.old == w.c {
			c.d.help()
			continue
		}
		return Witness[T]{}, false
	}
	d.help()
	if d.state.Load() == succeeded {
		return Witness[T]{d.newc}, true
	}
	return Witness[T]{}, false
}

// Holds reports whether the Atom currently holds exactly the witnessed
// cell, resolving any in-flight descriptor first. It is the building block
// for DCSS guards of the form "Y still holds oldY".
func (a *Atom[T]) Holds(w Witness[T]) bool {
	for {
		c := a.p.Load()
		if c == w.c {
			return true
		}
		if c != nil && c.d != nil {
			c.d.help()
			continue
		}
		return false
	}
}

// help drives the descriptor to completion: decide the guard once (the
// first decider's evaluation is the linearization point — it necessarily
// ran while the descriptor owned the Atom), then swing the Atom to the
// outcome cell. help is idempotent and safe to call from any thread.
func (d *desc[T]) help() {
	if d.state.Load() == undecided {
		verdict := failed
		if d.guard() {
			verdict = succeeded
		}
		d.state.CompareAndSwap(undecided, verdict)
	}
	if d.state.Load() == succeeded {
		d.a.p.CompareAndSwap(d.self, d.newc)
	} else {
		d.a.p.CompareAndSwap(d.self, d.old)
	}
}
