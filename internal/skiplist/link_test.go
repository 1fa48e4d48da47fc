package skiplist

import (
	"runtime"
	"sync"
	"testing"

	"skiptrie/internal/testenv"
)

// raiseFixture is one level-1 link head -> tail and a prepared raise of
// tower node tn (key 5) between them, guarded by root's stop flag.
type raiseFixture struct {
	head, tail, root, tn *Node
	d                    *descNode
}

func newRaiseFixture() *raiseFixture {
	f := &raiseFixture{
		head: &Node{kind: kindHead, level: 1},
		tail: &Node{kind: kindTail, level: 1},
		root: &Node{kind: kindData, key: 5},
	}
	f.root.root = f.root
	f.tn = &Node{kind: kindData, key: 5, level: 1, root: f.root, down: f.root}
	f.head.next.Store(f.tail)
	f.tn.next.Store(f.tail)
	f.d = &descNode{old: f.tail, new: f.tn}
	f.d.n.kind, f.d.n.root = kindDesc, f.root
	return f
}

// install puts the descriptor in the head's word as its owner's install
// CAS would, leaving it in flight.
func (f *raiseFixture) install(t *testing.T) {
	t.Helper()
	if !f.head.next.CompareAndSwap(f.tail, &f.d.n) {
		t.Fatal("install CAS failed")
	}
}

func TestRaiseDescriptorOutcomes(t *testing.T) {
	f := newRaiseFixture()
	if !f.head.dcssNext(f.d) {
		t.Fatal("raise with stop unset failed")
	}
	if s, _ := f.head.succ(); s.Next != f.tn || s.Marked {
		t.Fatalf("after raise head.next = %s, want the tower node", nodeDesc(s.Next))
	}

	f = newRaiseFixture()
	f.root.stop.Store(true)
	if f.head.dcssNext(f.d) {
		t.Fatal("raise linked although stop was set")
	}
	if p := f.head.next.Load(); p != f.tail {
		t.Fatalf("failed raise left %s in the word, want the tail", nodeDesc(p))
	}
	if f.d.state.Load() != failed {
		t.Fatalf("descriptor state %d, want failed", f.d.state.Load())
	}

	f = newRaiseFixture()
	f.head.next.Store(f.root) // the word moved on: the install CAS must lose
	if f.head.dcssNext(f.d) {
		t.Fatal("raise linked over an unexpected successor")
	}
	if f.d.state.Load() != undecided {
		t.Fatal("a descriptor whose install lost was decided")
	}
}

// TestReadersHelpInFlightDescriptor parks a descriptor in a word, as a
// raise descheduled right after its install CAS would, and checks that
// every reader and guard resolves it before using the word.
func TestReadersHelpInFlightDescriptor(t *testing.T) {
	// Guard holds: the first reader completes the link.
	f := newRaiseFixture()
	f.install(t)
	if f.head.Marked() {
		t.Fatal("a word holding a descriptor reads as marked")
	}
	s, w := f.head.LoadSucc()
	if s.Next != f.tn || s.Marked || w != (Witness{f.tn}) {
		t.Fatalf("LoadSucc over a descriptor = %s, want the helped link", nodeDesc(s.Next))
	}
	if p := f.head.next.Load(); p != f.tn {
		t.Fatalf("word after helping = %s", nodeDesc(p))
	}
	if f.head.dcssNext(f.d) || f.d.state.Load() != succeeded {
		// Re-running the owner's path must be a no-op: the install CAS
		// loses (the word moved on) and the state stays decided.
		t.Fatal("descriptor outcome changed after helping")
	}

	// Guard fails: a guard that reads the word (the prev DCSS guards and
	// xfast.swing use SuccHolds) helps it back to the old successor.
	f = newRaiseFixture()
	f.install(t)
	f.root.stop.Store(true)
	if !f.head.SuccHolds(Witness{f.tail}) {
		t.Fatal("SuccHolds did not see through a failing descriptor")
	}
	if p := f.head.next.Load(); p != f.tail {
		t.Fatalf("word after a failed raise = %s, want the tail", nodeDesc(p))
	}

	// A CAS expecting the descriptor's old value helps and retries, so a
	// raise can never block an unlink or an insert.
	f = newRaiseFixture()
	f.install(t)
	f.root.stop.Store(true)
	other := &Node{kind: kindData, key: 7, level: 1}
	other.next.Store(f.tail)
	if !f.head.casNext(f.tail, other) {
		t.Fatal("casNext blocked by a failing descriptor")
	}

	// A search walking through the word sees the helped link.
	l := New[struct{}](Config{Levels: 2})
	root := l.InsertWithHeight(5, struct{}{}, nil, 1, nil).Root
	tn := &Node{kind: kindData, key: 5, level: 1, root: root, down: root}
	tn.next.Store(l.tails[1])
	d := &descNode{old: l.tails[1], new: tn}
	d.n.kind, d.n.root = kindDesc, root
	if !l.heads[1].next.CompareAndSwap(l.tails[1], &d.n) {
		t.Fatal("install CAS failed")
	}
	if br := l.search(target{key: 5}, l.heads[1], nil); br.Right != tn {
		t.Fatalf("search over a descriptor bracketed %s", nodeDesc(br.Right))
	}
}

// TestRaiseNeverLinksAfterStop races the raise DCSS against the stop
// flag: once the stopping side has seen the word unlinked after setting
// stop, the link must never appear later.
func TestRaiseNeverLinksAfterStop(t *testing.T) {
	rounds := testenv.Scale(3000)
	for r := 0; r < rounds; r++ {
		f := newRaiseFixture()
		var wg sync.WaitGroup
		var raised bool
		wg.Add(1)
		go func() {
			defer wg.Done()
			raised = f.head.dcssNext(f.d)
		}()
		if r%2 == 0 {
			runtime.Gosched()
		}
		f.root.stop.Store(true)
		s, _ := f.head.succ()
		sawUnlinked := s.Next == f.tail
		wg.Wait()
		final, _ := f.head.succ()
		if sawUnlinked && (raised || final.Next != f.tail) {
			t.Fatalf("round %d: raise linked after stop was visible", r)
		}
		if raised != (final.Next == f.tn) {
			t.Fatalf("round %d: raise reported %v but the word holds %s", r, raised, nodeDesc(final.Next))
		}
	}
}

// TestInsertDeleteTowerRace races full-height inserts of one key against
// its deletes in both modes. In the CAS fallback a raise can link after
// stop and must take its own node down. No tower node of a dead root may
// survive, and no descriptor may be left behind.
func TestInsertDeleteTowerRace(t *testing.T) {
	for _, nodcss := range []bool{false, true} {
		l := New[struct{}](Config{Levels: 5, Seed: 9, DisableDCSS: nodcss})
		rounds := testenv.Scale(400)
		for r := 0; r < rounds; r++ {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						if (g+i)%2 == 0 {
							l.InsertWithHeight(7, struct{}{}, nil, 5, nil)
						} else {
							l.Delete(7, nil, nil)
						}
					}
				}(g)
			}
			wg.Wait()
			if err := l.Validate(); err != nil {
				t.Fatalf("nodcss=%v round %d: %v", nodcss, r, err)
			}
		}
	}
}
