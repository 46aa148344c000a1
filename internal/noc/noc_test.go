package noc

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hornet/internal/sim"
	"hornet/internal/snapshot"
	"hornet/internal/stats"
)

func TestFlowIDRoundTrip(t *testing.T) {
	if err := quick.Check(func(sRaw, dRaw uint16, class uint8) bool {
		src := NodeID(sRaw % MaxNodes)
		dst := NodeID(dRaw % MaxNodes)
		f := MakeFlow(src, dst, class%8)
		return f.Src() == src && f.Dst() == dst && f.Class() == class%8 && !f.Phase2()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowIDPhaseBit(t *testing.T) {
	f := MakeFlow(3, 9, 2)
	f2 := f.WithPhase2()
	if !f2.Phase2() || f.Phase2() {
		t.Fatal("phase bit handling broken")
	}
	if f2.Base() != f {
		t.Fatal("Base did not strip the phase bit")
	}
	if f2.Src() != 3 || f2.Dst() != 9 || f2.Class() != 2 {
		t.Fatal("phase bit clobbered other fields")
	}
}

func TestMakeFlowPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	MakeFlow(MaxNodes, 0, 0)
}

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k          Kind
		head, tail bool
	}{
		{Head, true, false},
		{Body, false, false},
		{Tail, false, true},
		{HeadTail, true, true},
	}
	for _, c := range cases {
		if c.k.IsHead() != c.head || c.k.IsTail() != c.tail {
			t.Fatalf("%v predicates wrong", c.k)
		}
	}
}

func TestVCBufferFIFO(t *testing.T) {
	b := NewVCBuffer(4)
	for i := 0; i < 4; i++ {
		if !b.Push(Flit{Seq: uint16(i)}, nil) {
			t.Fatalf("push %d failed", i)
		}
	}
	if b.Push(Flit{}, nil) {
		t.Fatal("push into full buffer succeeded")
	}
	for i := 0; i < 4; i++ {
		f, ok := b.Peek(0)
		if !ok || f.Seq != uint16(i) {
			t.Fatalf("peek %d: got %v ok=%v", i, f, ok)
		}
		got := b.Pop()
		if got.Seq != uint16(i) {
			t.Fatalf("pop %d: got seq %d", i, got.Seq)
		}
	}
	if _, ok := b.Peek(0); ok {
		t.Fatal("peek on empty buffer succeeded")
	}
}

func TestVCBufferVisibility(t *testing.T) {
	b := NewVCBuffer(2)
	b.Push(Flit{VisibleAt: 10}, nil)
	if _, ok := b.Peek(9); ok {
		t.Fatal("flit visible before its VisibleAt")
	}
	if _, ok := b.Peek(10); !ok {
		t.Fatal("flit not visible at its VisibleAt")
	}
}

func TestVCBufferCommittedPops(t *testing.T) {
	b := NewVCBuffer(4)
	b.Push(Flit{}, nil)
	b.Push(Flit{}, nil)
	b.Pop()
	if b.CommittedPops() != 0 {
		t.Fatal("pops visible before commit")
	}
	b.Commit()
	if b.CommittedPops() != 1 {
		t.Fatalf("committed pops = %d, want 1", b.CommittedPops())
	}
}

// TestVCBufferConcurrentSPSC drives the lock-free ring with one producer
// and one consumer on separate goroutines, the producer writing only on
// credit as the router does, and checks the paper's §II-C functional-
// correctness requirement: nothing lost, nothing reordered, and no slot
// overwritten before it was popped. "wrappers" goes through Push/Peek/Pop
// on a free-standing buffer; "in-place" is the router's own path — the
// producer reads its credit from an egress record the buffer commits
// into, fills the tail slot and publishes it, the consumer reads the head
// slot and advances. Run it under -race: the detector checks that every
// slot hand-off is ordered by the published counters.
func TestVCBufferConcurrentSPSC(t *testing.T) {
	const n = 100_000
	// Every field derives from the index, so a torn or stale slot cannot
	// pass for the flit the consumer expects.
	fill := func(f *Flit, i uint64) { f.Packet, f.FlowSeq, f.Latency = i, ^i, i*3 }
	intact := func(f *Flit, i uint64) bool { return f.Packet == i && f.FlowSeq == ^i && f.Latency == i*3 }

	type ends struct {
		buf     *VCBuffer
		produce func(i uint64) bool            // false: no credit yet
		consume func(i uint64) (ok, good bool) // ok false: nothing to pop
	}
	wrappers := func() ends {
		b := NewVCBuffer(4)
		return ends{
			buf: b,
			produce: func(i uint64) bool {
				if int(i-b.CommittedPops()) == b.Capacity() {
					return false
				}
				var f Flit
				fill(&f, i)
				if !b.Push(f, nil) {
					t.Error("push failed despite credit")
				}
				return true
			},
			consume: func(i uint64) (bool, bool) {
				head, ok := b.Peek(0)
				if !ok {
					return false, true
				}
				seen := *head
				f := b.Pop()
				return true, intact(&f, i) && intact(&seen, i)
			},
		}
	}
	inPlace := func() ends {
		b := NewVCBuffer(4)
		ev := new(egressVC)
		ev.connect(0, b)
		return ends{
			buf: b,
			produce: func(i uint64) bool {
				if ev.free(i) < 1 { // Commit is unstamped: any cycle sees it whole
					return false
				}
				slot := b.tailSlot()
				if slot == nil {
					t.Error("buffer physically full despite credit")
					return true
				}
				fill(slot, i)
				b.publish()
				ev.pushes++
				return true
			},
			consume: func(i uint64) (bool, bool) {
				if b.Len() == 0 {
					return false, true
				}
				good := intact(b.headSlot(), i)
				b.advance()
				return true, good
			},
		}
	}
	for name, mk := range map[string]func() ends{"wrappers": wrappers, "in-place": inPlace} {
		t.Run(name, func(t *testing.T) {
			e := mk()
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // producer
				defer wg.Done()
				for i := uint64(0); i < n && !t.Failed(); {
					if e.produce(i) {
						i++
					} else {
						runtime.Gosched() // no credit; single-core hosts: let the consumer run
					}
				}
			}()
			go func() { // consumer
				defer wg.Done()
				for i := uint64(0); i < n && !t.Failed(); {
					// Pop everything there, then commit once: the negative
					// clock edge publishes a cycle's pops together.
					popped := false
					for {
						ok, good := e.consume(i)
						if !ok {
							break
						}
						if !good {
							t.Errorf("flit %d arrived torn, stale or out of order", i)
							return
						}
						i++
						popped = true
					}
					if popped {
						e.buf.Commit()
					} else {
						runtime.Gosched()
					}
				}
				if !t.Failed() && e.buf.Len() != 0 {
					t.Errorf("%d flits left after the last one expected", e.buf.Len())
				}
			}()
			wg.Wait()
		})
	}

	// "mask" hammers the occupancy bit: the consumer finds flits the way a
	// router does, through the bit alone, and clears it whenever a pop
	// empties the buffer, while the producer pushes into that very window.
	// The producer pushes in bursts no longer than the capacity (so it never
	// waits for credit) and the two meet after each burst; at that quiescent
	// point the consumer pops for as long as the bit is set, and a flit that
	// is then still resident has been left with its bit clear — the lost
	// wake-up the consumer's second look at Len exists to prevent. The
	// reverse, a set bit over an empty buffer, is allowed: the producer's Or
	// can land after the consumer has popped the flit it announces, and the
	// consumer clears it on its next look, as a router's pass does.
	t.Run("mask", func(t *testing.T) {
		flits := uint64(1_000_000)
		if testing.Short() {
			flits = 100_000
		}
		b := NewVCBuffer(4)
		var produced, consumed atomic.Uint64 // flits pushed by finished bursts; flits popped by finished rounds
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // producer
			defer wg.Done()
			for i := uint64(0); i < flits && !t.Failed(); {
				burst := min(1+i%uint64(b.Capacity()), flits-i)
				for k := uint64(0); k < burst; k++ {
					slot := b.tailSlot()
					if slot == nil {
						t.Error("buffer full at the start of a burst")
						return
					}
					fill(slot, i)
					b.publish()
					i++
				}
				produced.Store(i)
				for consumed.Load() != i && !t.Failed() {
					runtime.Gosched()
				}
			}
		}()
		go func() { // consumer
			defer wg.Done()
			occupied := func() bool { return b.occ.Load()>>b.bit&1 != 0 }
			for i := uint64(0); consumed.Load() != flits && !t.Failed(); {
				quiescent := produced.Load() != consumed.Load()
				for occupied() && b.Len() > 0 {
					if !intact(b.headSlot(), i) {
						t.Errorf("flit %d arrived torn, stale or out of order", i)
						return
					}
					b.advance()
					i++
				}
				if !quiescent {
					runtime.Gosched()
					continue
				}
				// The producer finished its burst before this round began.
				if left := b.Len(); left != 0 {
					t.Errorf("after flit %d the producer is idle and %d flits are resident with the occupancy bit clear", i, left)
					return
				}
				if occupied() {
					b.deriveOccupancy()
					if occupied() {
						t.Errorf("after flit %d the occupancy bit of the empty buffer cannot be cleared", i)
						return
					}
				}
				b.Commit()
				consumed.Store(i)
			}
		}()
		wg.Wait()
	})

	// "park" hammers the other clear-then-look-again pair: the consumer is a
	// router's VC whose downstream never has a credit, so whenever it has
	// seen every resident flit it parks — clears its bit — while the producer
	// pushes into that very window. At a quiescent point a resident flit the
	// consumer has not seen under a clear bit is a lost wake: that flit would
	// not be stamped on the cycle it arrived. The producer's publish stores
	// the push count and then loads the mask; park clears the bit and then
	// loads the push count: one of the two sees the other.
	t.Run("park", func(t *testing.T) {
		flits := uint64(1_000_000)
		if testing.Short() {
			flits = 100_000
		}
		r := NewRouter(RouterParams{
			ID: 0, Table: lineTable{self: 0}, VCATable: allVCs{}, RNG: sim.NewRNG(1), Stats: stats.NewTile(),
			InFlight: new(atomic.Int64), LocalVCs: 1, LocalBufFlits: 1,
			Ports: []PortParams{{Neighbor: 1, VCs: 1, BufFlits: 4}},
		})
		st := &r.vcs[1]
		st.ev = new(egressVC) // capacity 0: never a free slot
		b := &st.buf
		var produced, consumed atomic.Uint64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // producer
			defer wg.Done()
			for i := uint64(0); i < flits && !t.Failed(); {
				burst := min(1+i%uint64(b.Capacity()), flits-i)
				for k := uint64(0); k < burst; k++ {
					fill(b.tailSlot(), i)
					b.publish()
					i++
				}
				produced.Store(i)
				for consumed.Load() != i && !t.Failed() {
					runtime.Gosched()
				}
			}
		}()
		go func() { // consumer
			defer wg.Done()
			occupied := func() bool { return b.occ.Load()>>b.bit&1 != 0 }
			for i := uint64(0); consumed.Load() != flits && !t.Failed(); {
				quiescent := produced.Load() != consumed.Load()
				for occupied() {
					st.sCount = uint32(b.Len()) // the pass has seen these
					st.park()
				}
				if !quiescent {
					runtime.Gosched()
					continue
				}
				// The producer finished its burst before this round began.
				if resident := uint32(b.Len()); resident != st.sCount {
					t.Errorf("after flit %d the producer is idle and the VC is parked having seen %d of %d resident flits", i, st.sCount, resident)
					return
				}
				if st.ev.credit.waiter.Load() != b {
					t.Errorf("after flit %d the VC is parked but not the waiter on its egress record", i)
					return
				}
				for ; st.sCount > 0; st.sCount-- {
					if !intact(b.headSlot(), i) {
						t.Errorf("flit %d arrived torn, stale or out of order", i)
						return
					}
					b.advance()
					i++
				}
				b.Commit()
				consumed.Store(i)
			}
		}()
		wg.Wait()
	})
}

func TestLinkFixedBandwidth(t *testing.T) {
	l := NewLink(2, false)
	if l.Grant(0) != 2 || l.Grant(1) != 2 {
		t.Fatal("fixed link bandwidth wrong")
	}
	l.ReportDemand(0, 0, 100) // no-ops when not bidirectional
	l.arbitrate(0, 0, 0, 8)
	if l.Grant(0) != 2 {
		t.Fatal("fixed link changed bandwidth")
	}
}

// grants runs both sides' arbiters at the positive edge after cycle prev,
// each counting the two free spaces after prev as its router does — its
// own ingress, and the far one through its credits — and returns the
// grants they take for the cycle.
func grants(l *Link, prev uint64, space0, space1 int) (int, int) {
	l.arbitrate(0, prev, space0, space1)
	l.arbitrate(1, prev, space1, space0)
	return l.Grant(0), l.Grant(1)
}

func TestBidirectionalLinkShiftsBandwidth(t *testing.T) {
	l := NewLink(1, true)
	// Side 0 has all the demand after cycle 1 and side 1's ingress has
	// space. The arbiters of cycle 2 read side 0's space after cycle 1 and
	// side 1's after cycle 0.
	grants(l, 0, 8, 8)
	l.ReportDemand(0, 1, 5)
	l.ReportDemand(1, 1, 0)
	if g0, g1 := grants(l, 1, 8, 8); g0 != 2 || g1 != 0 {
		t.Fatalf("one-sided demand: grants %d/%d, want 2/0", g0, g1)
	}
	// Balanced demand: symmetric split.
	l.ReportDemand(1, 1, 5)
	if g0, g1 := grants(l, 1, 8, 8); g0+g1 != 2 || g0 != 1 {
		t.Fatalf("balanced demand: grants %d/%d, want 1/1", g0, g1)
	}
	// Demand capped by destination space: no room on side 1's ingress, so
	// side 0's demand is moot.
	grants(l, 0, 8, 0)
	if _, g1 := grants(l, 1, 8, 8); g1 != 2 {
		t.Fatalf("space-capped: grant(1) = %d, want 2", g1)
	}
	// Idle link parks symmetric.
	l.ReportDemand(0, 1, 0)
	l.ReportDemand(1, 1, 0)
	if g0, g1 := grants(l, 1, 8, 8); g0 != 1 || g1 != 1 {
		t.Fatalf("idle link: grants %d/%d, want 1/1", g0, g1)
	}
}

// TestLinkArbiterReadsFarSideOneCycleLate pins the link rule: the
// arbiters of the cycle after prev read both sides' demand after prev,
// side 0's free space after prev and side 1's after prev-1 — values final
// before the cycle starts — and nothing either side writes during the
// cycle: its own demand of the cycle, and side 1's space after prev,
// which both sides store while they arbitrate.
func TestLinkArbiterReadsFarSideOneCycleLate(t *testing.T) {
	const prev = 7
	l := NewLink(1, true)
	l.ReportDemand(0, prev, 3)
	l.ReportDemand(1, prev, 3)
	grants(l, prev-1, 8, 8)
	if g0, g1 := grants(l, prev, 8, 8); g0 != 1 || g1 != 1 {
		t.Fatalf("balanced: grants %d/%d, want 1/1", g0, g1)
	}
	l.ReportDemand(0, prev+1, 0) // the cycle in progress
	grants(l, prev-1, 8, 8)
	if g0, g1 := grants(l, prev, 8, 0); g0 != 1 || g1 != 1 {
		t.Fatalf("side 1's space after prev or a demand of the cycle in progress moved the grant: %d/%d, want 1/1", g0, g1)
	}
	grants(l, prev-1, 8, 0)
	if g0, g1 := grants(l, prev, 8, 8); g0 != 0 || g1 != 2 {
		t.Fatalf("side 1's space after prev-1: grants %d/%d, want 0/2", g0, g1)
	}
	// Side 0's own space counts after the cycle it is left by.
	grants(l, prev-1, 8, 8)
	if g0, g1 := grants(l, prev, 0, 8); g0 != 2 || g1 != 0 {
		t.Fatalf("side 0's space after prev: grants %d/%d, want 2/0", g0, g1)
	}
	// Each side keeps its own grant: a side that has not arbitrated yet
	// still holds the previous cycle's.
	grants(l, prev-1, 8, 8)
	l.arbitrate(0, prev, 0, 8)
	if l.Grant(0) != 2 || l.Grant(1) != 1 {
		t.Fatalf("one side arbitrated: grants %d/%d, want 2/1", l.Grant(0), l.Grant(1))
	}
}

// TestLinkSnapshotKeepsLastCommittedSlot: a link saves the demands and
// free spaces the last cycle before the snapshot's clock left, and the
// grants the clock's cycle will use — computed as the sides will compute
// them, from side 1's space of the cycle before, which the format has no
// field for. A restored link uses the saved grants for that cycle and
// arbitrates the next one as the saved link does, whichever parity the
// cycles have.
func TestLinkSnapshotKeepsLastCommittedSlot(t *testing.T) {
	for _, clock := range []uint64{10, 11} {
		last := clock - 1
		l := NewLink(1, true)
		in0, in1 := NewVCBuffer(8), NewVCBuffer(8)
		for i := 0; i < 4; i++ {
			in1.Push(Flit{}, nil)
		}
		l.in = [2][]*VCBuffer{{in0}, {in1}}
		grants(l, last-1, 8, 8) // cycle last runs: side 1's space after last-1 is 8
		l.ReportDemand(0, last, 2)
		l.ReportDemand(1, last, 0)

		save := func(l *Link) []byte {
			snap := snapshot.New("link-test", clock)
			l.SaveState(snap.Section("link"), clock)
			b, err := snap.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		blob := save(l)
		restored := NewLink(1, true)
		restored.in = l.in
		snap, err := snapshot.DecodeBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := snap.Open("link")
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.LoadState(rd); err != nil {
			t.Fatal(err)
		}
		if again := save(restored); !bytes.Equal(again, blob) {
			t.Errorf("clock %d: re-saved link differs from the saved one", clock)
		}
		// Cycle clock: both links grant side 0 all of it; the restored one
		// could not have computed that (it has no space of side 1's after
		// last-1), so it comes from the snapshot.
		g0, g1 := grants(l, last, 8, 4)
		r0, r1 := grants(restored, last, 8, 4)
		if r0 != g0 || r1 != g1 || g0 != 2 {
			t.Errorf("clock %d: restored grants %d/%d, saved %d/%d, want 2/0", clock, r0, r1, g0, g1)
		}
		// The next cycle reads side 1's space after clock-1 (4, so side 0's
		// demand counts) on both.
		for _, x := range []*Link{l, restored} {
			x.ReportDemand(0, clock, 1)
			x.ReportDemand(1, clock, 1)
		}
		g0, g1 = grants(l, clock, 8, 4)
		r0, r1 = grants(restored, clock, 8, 4)
		if r0 != g0 || r1 != g1 || g0 != 1 {
			t.Errorf("clock %d: next cycle's grants: restored %d/%d, saved %d/%d, want 1/1", clock, r0, r1, g0, g1)
		}
	}
}

// Pop removes and returns the head flit, dropping its payload (consumer
// side): the in-place consumer primitives with a copy around them, for
// tests that drain a buffer no running router owns. A router caches what
// it knows about its own buffers' heads, so it never pops from outside.
func (b *VCBuffer) Pop() Flit {
	f := *b.headSlot()
	b.takePayload()
	b.advance()
	return f
}

// CommittedPops returns the consumer's latest committed cumulative pop
// count (consumer side, or at a quiescent point).
func (b *VCBuffer) CommittedPops() uint64 {
	pops := b.pops.Load()
	return pops - uint64(uint16(pops)-b.cell().latest())
}
