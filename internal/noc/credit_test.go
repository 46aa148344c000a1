package noc

import (
	"testing"

	"hornet/internal/snapshot"
)

// creditLine is a producer and a consumer joined by one link of one VC of
// four slots, with the consumer's buffer full: the producer's view of the
// credit is all there is to look at. The consumer's positive edge never
// runs; a test pops its buffer by hand, as a traversal would.
type creditLine struct {
	prod, cons *Router
	ev         *egressVC // the producer's record of the consumer's buffer
	buf        *VCBuffer
}

func newCreditLine(t *testing.T) *creditLine {
	routers, _ := pipeline(t, 2, 1, 4, VCADynamic)
	l := &creditLine{prod: routers[0], cons: routers[1]}
	pp, _ := l.prod.PortToward(1)
	cp, _ := l.cons.PortToward(0)
	l.ev, l.buf = &l.prod.Ports()[pp].outState[0], l.cons.Ports()[cp].In[0]
	for i := 0; i < 4; i++ {
		l.buf.Push(Flit{}, nil)
		l.ev.pushes++
	}
	return l
}

// pop is the consumer's pop of one flit in a cycle, committed at the
// cycle's negative edge.
func (l *creditLine) pop() {
	l.buf.Pop()
	l.cons.popped = append(l.cons.popped, l.buf.commitOf())
}

// free is the space the producer may use in cycle c.
func (l *creditLine) free(c uint64) int { return l.ev.free(c - 1) }

// TestCreditVisibleFromNextCycle pins the credit rule that lets a cycle run
// on one barrier: a pop committed on cycle c's negative edge is invisible
// to the producer in c — whose positive edge may run after that commit on
// another worker — and visible from c+1 on, also at c+2 and later when
// nothing pops (no negative edge writes the credit again). The rule holds
// on across a restore, whose unstamped writes are whole in every cycle.
func TestCreditVisibleFromNextCycle(t *testing.T) {
	const c = 10
	check := func(when string, l *creditLine, cycle uint64, want int) {
		t.Helper()
		if got := l.free(cycle); got != want {
			t.Fatalf("%s: the producer may use %d slots in cycle %d, want %d", when, got, cycle, want)
		}
	}
	l := newCreditLine(t)
	check("before any pop", l, c, 0)
	l.pop()
	l.cons.PhaseCommit(c)
	check("after the commit of c", l, c, 0)
	check("after the commit of c", l, c+1, 1)
	l.cons.PhaseCommit(c + 1)
	check("nothing popped at c+1", l, c+2, 1)
	l.cons.PhaseCommit(c + 2)
	check("nothing popped at c+2", l, c+3, 1)

	// Restore both routers at the boundary before c+3, and pop again there.
	snap := snapshot.New("credit", c+3)
	restored := newCreditLine(t)
	pairs := []struct {
		name     string
		from, to *Router
	}{{"cons", l.cons, restored.cons}, {"prod", l.prod, restored.prod}} // the consumer writes the producer's cell
	for _, p := range pairs {
		if err := p.from.SaveState(snap.Section(p.name), c+3); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pairs {
		rd, err := snap.Open(p.name)
		if err == nil {
			err = p.to.LoadState(rd, c+3)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	check("restored", restored, c+3, 1)
	check("restored", restored, c+4, 1)
	restored.pop()
	restored.cons.PhaseCommit(c + 3)
	check("restored, after the commit of c+3", restored, c+3, 1)
	check("restored, after the commit of c+3", restored, c+4, 2)
	restored.cons.PhaseCommit(c + 4)
	check("restored, nothing popped at c+4", restored, c+5, 2)
}

// TestCreditWakesVCParkedInItsCycle: the consumer's negative edge of cycle
// c may run before the producer's positive edge of c, so a credit can be
// published before the VC it frees parks for want of it — with no waiter
// armed to ring. The park must look at the latest count, not at the one
// usable in c, and stay awake: in c+1 the credit is there to use.
func TestCreditWakesVCParkedInItsCycle(t *testing.T) {
	const c = 10
	l := newCreditLine(t)
	r := l.prod
	st := &r.vcs[0] // an injection VC of the producer, allocated the consumer's VC
	st.buf.Push(Flit{Kind: HeadTail}, nil)
	st.sCount, st.ev = 1, l.ev
	if r.occ[0].Load()&1 == 0 {
		t.Fatal("the pushed flit did not set its VC's occupancy bit")
	}

	l.pop()
	l.cons.PhaseCommit(c) // before the producer's pass of c: nobody waits yet
	if l.free(c) != 0 {
		t.Fatalf("the producer sees %d free slots in cycle %d, want 0", l.free(c), c)
	}
	st.park() // the pass of c: no credit usable in c
	if r.occ[0].Load()&1 == 0 {
		t.Fatal("the VC parked on a credit committed in its own cycle and nothing will wake it")
	}
	if l.free(c+1) != 1 {
		t.Fatalf("the producer sees %d free slots in cycle %d, want 1", l.free(c+1), c+1)
	}
	if n, lost := r.Parked(); n != 0 || len(lost) != 0 {
		t.Fatalf("%d VCs asleep, lost wakes %v", n, lost)
	}
}

// TestCreditSurvivesFastForwardJump: a fast-forward jump skips cycles. The
// producer discounts a pop only when its stamp names the very cycle it runs,
// so the pop of the last cycle before the jump stays visible on every cycle
// after it — also after a jump long enough to bring a stamp narrower than the
// credit word's back to the cycle being run (2^32 - 1 lands a 32-bit stamp
// there on the second cycle after the jump) — and the word holds it with no
// negative edge writing it again.
func TestCreditSurvivesFastForwardJump(t *testing.T) {
	for _, jump := range []uint64{2, 3, 1<<32 - 1, 1<<32 + 1, 1<<40 - 1} {
		const c = 10
		l := newCreditLine(t)
		cycle := func(c uint64, pop bool) {
			l.prod.PhaseTransfer(c)
			if pop {
				l.pop()
			}
			l.cons.PhaseCommit(c)
			l.prod.PhaseCommit(c)
		}
		cycle(c, true)
		for next := c + jump; next < c+jump+4; next++ {
			if got := l.ev.free(l.prod.last); got != 1 {
				t.Fatalf("jump over %d cycles after %d: the producer may use %d slots in cycle %d, want 1", jump-1, c, got, next)
			}
			cycle(next, false)
		}
	}
}
