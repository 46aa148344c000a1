package noc

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// checkMask asserts the occupancy mask's invariant at the boundary before
// cycle next, with the machine quiescent and synchronized every cycle: every
// ingress VC is wired to its bit, and the bit is clear exactly when the
// buffer is empty or the VC is parked — and a parked VC is one only a
// credit can move: VA done, head visible, every resident stamped, no free
// slot downstream, and its buffer armed as the waiter on the egress record
// whose credit it waits for. It returns how many VCs are parked.
func checkMask(t *testing.T, when string, routers []*Router, next uint64) (parked int) {
	t.Helper()
	for _, r := range routers {
		if want := (len(r.vcs) + 63) / 64; len(r.occ) != want {
			t.Fatalf("%s: router %d has %d mask words for %d VCs, want %d", when, r.ID, len(r.occ), len(r.vcs), want)
		}
		for i := range r.vcs {
			st := &r.vcs[i]
			b := &st.buf
			if b.occ != &r.occ[i/64] || int(b.bit) != i%64 {
				t.Fatalf("%s: router %d vc %d is not wired to bit %d of mask word %d", when, r.ID, i, i%64, i/64)
			}
			set := r.occ[i/64].Load()>>(i%64)&1 != 0
			resident := b.Len()
			if set == (resident > 0) {
				continue
			}
			if set {
				t.Fatalf("%s: router %d vc %d is empty but its occupancy bit is set", when, r.ID, i)
			}
			parked++
			switch ev := st.ev; {
			case !st.vaDone || ev == nil || st.headPacket != st.pktID:
				t.Fatalf("%s: router %d vc %d holds %d flits with its bit clear, but is not through VA (vaDone=%v ev=%v)", when, r.ID, i, resident, st.vaDone, ev != nil)
			case st.headVis > next:
				t.Fatalf("%s: router %d vc %d is parked with its head not visible before cycle %d", when, r.ID, i, st.headVis)
			case int(st.sCount) != resident:
				t.Fatalf("%s: router %d vc %d is parked with %d of %d residents stamped", when, r.ID, i, st.sCount, resident)
			case ev.free(r.last) != 0:
				t.Fatalf("%s: router %d vc %d is parked with %d free slots downstream (egress port %d vc %d): a lost wake", when, r.ID, i, ev.free(r.last), st.egress, ev.vc)
			case ev.credit.waiter.Load() != b:
				t.Fatalf("%s: router %d vc %d is parked but is not the waiter on egress port %d vc %d", when, r.ID, i, st.egress, ev.vc)
			}
		}
	}
	return parked
}

// stepWorkers advances routers one cycle as an engine with that many
// workers does: each worker runs both edges of its share of the routers,
// and all meet at the end of the cycle.
func stepWorkers(routers []*Router, workers int, cycle uint64) {
	stepPeriod(routers, workers, cycle, 1)
}

// rngStates lists the routers' generator states, the one place an idle
// cycle leaves a trace.
func rngStates(routers []*Router) []uint64 {
	out := make([]uint64, len(routers))
	for i, r := range routers {
		out[i] = r.rng.State()
	}
	return out
}

// TestOccupancyMaskTracksBuffers checks the mask against the buffers and
// the parked VCs at every cycle boundary of a congested line (where VCs
// must park, and every one must wake: the line drains) and of a machine
// that is idle, bursts and goes idle again, stepped by one worker and by
// three, with one mask word per router and with two, over fixed links and
// over bandwidth-adaptive ones — whose routers park and skip idle cycles
// like any other.
func TestOccupancyMaskTracksBuffers(t *testing.T) {
	burst := func(routers []*Router) {
		for i := 0; i < 3; i++ {
			routers[0].OfferPacket(Packet{Flow: MakeFlow(0, 3, 0), Dst: 3, Flits: 5})
			routers[2].OfferPacket(Packet{Flow: MakeFlow(2, 3, 1), Dst: 3, Flits: 2})
		}
	}
	for _, tc := range []struct {
		vcs   int
		bidir bool
	}{{2, false}, {40, false}, {2, true}, {40, true}} { // 40 VCs on each of 3 ports: two mask words
		type outcome struct {
			received [][]Packet
			rng      []uint64
		}
		var first *outcome
		vcs := tc.vcs
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("vcs%d/workers%d", vcs, workers)
			if tc.bidir {
				name = "bidirectional/" + name
			}
			routers, received := linkedPipeline(t, 4, vcs, 3, VCADynamic, tc.bidir)
			if words := len(routers[1].occ); words != (3*vcs+63)/64 {
				t.Fatalf("%s: middle router has %d mask words", name, words)
			}
			checkMask(t, name+" when built", routers, 0)
			cycle := uint64(0)
			run := func(what string, cycles int) (parked int) {
				for end := cycle + uint64(cycles); cycle < end; cycle++ {
					stepWorkers(routers, workers, cycle)
					parked += checkMask(t, fmt.Sprintf("%s %s, after cycle %d", name, what, cycle), routers, cycle+1)
				}
				return parked
			}
			asleep := func(what string) {
				t.Helper()
				for _, r := range routers {
					if r.anyOccupied() || r.PendingPackets() != 0 {
						t.Fatalf("%s %s: router %d is not idle", name, what, r.ID)
					}
				}
			}
			run("idle", 40)
			asleep("before the burst")
			burst(routers)
			run("burst", 150)
			asleep("after the burst")
			run("idle again", 40)
			congest(routers)
			if parked := run("congested", 400); parked == 0 {
				t.Fatalf("%s: no VC was ever parked at a cycle boundary of the congested run", name)
			}
			asleep("after the congestion drained")

			got := &outcome{rng: rngStates(routers)}
			for _, rec := range received {
				got.received = append(got.received, *rec)
			}
			if n := len(got.received[3]); n != 6+24 {
				t.Fatalf("%s: the last router received %d packets, want 30", name, n)
			}
			if first == nil {
				first = got
			} else if !reflect.DeepEqual(first, got) {
				t.Fatalf("%s: deliveries or generator positions differ from the 1-worker run", name)
			}
		}
	}
}

// TestOccupancyMaskTracksBuffersAfterRestore: neither the mask nor who is
// parked is in the snapshot. The snapshot is taken with VCs parked;
// VCBuffer.LoadState sets the bit of every buffer it restored a flit into,
// whichever router loads first, so nothing is parked after the restore, the
// first pass parks what is blocked again, and every restored flit is found.
func TestOccupancyMaskTracksBuffersAfterRestore(t *testing.T) {
	const at = 46 // a boundary of this run at which the first router's injection VC is parked
	routers, _ := pipeline(t, 4, 2, 3, VCADynamic)
	congest(routers)
	for c := uint64(0); c < at; c++ {
		step(routers, c)
	}
	if checkMask(t, "at the snapshot", routers, at) == 0 {
		t.Fatal("nothing parked at the snapshot: the restore checked nothing")
	}
	blobs := make([][]byte, len(routers))
	for i, r := range routers {
		blobs[i] = saveRouter(t, r, at)
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		fresh, _ := pipeline(t, 4, 2, 3, VCADynamic)
		// A bit set in the machine being loaded into must not survive the
		// load of an empty buffer (router 3 injects nothing).
		stale := fresh[3].LocalPort().In[1]
		stale.occ.Or(1 << stale.bit)
		for _, i := range order {
			loadRouter(t, fresh[i], blobs[i])
		}
		if parked := checkMask(t, fmt.Sprintf("restored in order %v", order), fresh, at); parked != 0 {
			t.Fatalf("restored in order %v: %d VCs are parked before any pass has run", order, parked)
		}
		parked := 0
		for c := uint64(at); c < at+400; c++ {
			step(fresh, c)
			parked += checkMask(t, fmt.Sprintf("restored in order %v, after cycle %d", order, c), fresh, c+1)
		}
		if parked == 0 {
			t.Fatalf("restored in order %v: the first pass parked nothing", order)
		}
		for _, r := range fresh {
			if r.ResidentFlits() != 0 || r.PendingPackets() != 0 {
				t.Fatalf("restored in order %v: router %d never drained: a restored flit was not found", order, r.ID)
			}
		}
	}
}

// TestParkedRouterIsIdle: a two-router line whose sink stops draining. The
// source's two injection VCs fill, their packets hold both downstream VCs
// and those fill too, so both are parked: the source holds four flits, its
// mask is all zero, and every cycle is the idle one — the generator moves
// by the skipped egress permutation and nothing else changes. One flit
// drained downstream wakes exactly the VC that waited for that credit, on
// the cycle after the commit; it moves one flit and parks again. The
// schedule is fixed, so the delivered latencies are those the parent commit
// (which visited both VCs every cycle) produces for it.
func TestParkedRouterIsIdle(t *testing.T) {
	routers, received := pipeline(t, 2, 3, 2, VCADynamic)
	src, sink := routers[0], routers[1]
	for class := uint8(0); class < 2; class++ { // with 3 VCs the two flows inject through different ones
		src.OfferPacket(Packet{Flow: MakeFlow(0, 1, class), Dst: 1, Flits: 4})
	}
	cycle := uint64(0)
	// run steps rs through whole cycles; a sink left out runs only its
	// negative edge, as a tile that stops draining does in an engine: it
	// pops nothing, and so commits nothing.
	run := func(until uint64, rs ...*Router) {
		for ; cycle < until; cycle++ {
			step(rs, cycle)
			if !slices.Contains(rs, sink) {
				sink.PhaseCommit(cycle)
			}
			checkMask(t, fmt.Sprintf("after cycle %d", cycle), routers, cycle+1)
		}
	}
	idle := func(when string) {
		t.Helper()
		if used, _ := src.LocalPort().InOccupancy(); used != 4 || src.PendingPackets() != 0 {
			t.Fatalf("%s: the source holds %d flits and %d packets to inject, want 4 and 0", when, used, src.PendingPackets())
		}
		if src.anyOccupied() {
			t.Fatalf("%s: the source's mask is %#x with every resident blocked on credit, want 0", when, src.occ[0].Load())
		}
		counts, rng := *src.Stats(), *src.rng
		src.PhaseTransfer(cycle)
		src.PhaseCommit(cycle)
		rng.Skip(len(src.ports) - 1)
		if *src.rng != rng || !reflect.DeepEqual(*src.Stats(), counts) || src.anyOccupied() {
			t.Fatalf("%s: a cycle of the parked source was not the idle cycle", when)
		}
		cycle++
	}

	run(40, src) // the sink's positive edge never runs: nothing drains
	idle("stalled")

	// The sink runs two cycles: RC, then one ejection, committed at the end of
	// the second.
	moved := src.Stats().XbarTransits
	run(cycle+2, src, sink)
	if got := sink.Stats().FlitsDelivered; got != 1 {
		t.Fatalf("the sink drained %d flits in two cycles, want 1", got)
	}
	if src.Stats().XbarTransits != moved {
		t.Fatal("the source moved a flit before the cycle after the commit")
	}
	woken := 0
	for i := range src.vcs {
		st := &src.vcs[i]
		if set := src.occ[0].Load()>>i&1 != 0; set != (st.ev != nil && st.ev.free(src.last) == 1) {
			t.Fatalf("after the commit: source vc %d has its bit set=%v, but %d free slots downstream", i, set, st.ev.free(src.last))
		} else if set {
			woken++
		}
	}
	if woken != 1 {
		t.Fatalf("one credit woke %d VCs, want 1", woken)
	}
	run(cycle+1, src)
	if got := src.Stats().XbarTransits; got != moved+1 {
		t.Fatalf("the source moved %d flits on the cycle after the commit, want 1", got-moved)
	}
	run(cycle+3, src)
	if used, _ := src.LocalPort().InOccupancy(); used != 3 || src.anyOccupied() {
		t.Fatalf("after its one flit the source holds %d flits with mask %#x, want 3 and 0", used, src.occ[0].Load())
	}

	run(200, src, sink)
	var latencies []uint64
	for _, p := range *received[1] {
		latencies = append(latencies, p.Latency)
	}
	if want := []uint64{48, 46}; !reflect.DeepEqual(latencies, want) {
		t.Fatalf("delivered latencies %v, at the parent commit %v", latencies, want)
	}
}

// TestOccupancyMaskTracksBuffersFreeRunning looks for a lost wake where one
// could happen: the four routers of a saturated line each run on a thread of
// their own, both clock edges of a cycle back to back, held only to within
// two cycles of their neighbours, so parks, pushes and credit publications
// interleave freely (loose synchronization). At every meeting point no VC
// may be asleep with a credit available or a flit it has not seen
// (Router.Parked), and once the sources stop the line must drain — over
// fixed links and over bandwidth-adaptive ones.
func TestOccupancyMaskTracksBuffersFreeRunning(t *testing.T) {
	for _, bidir := range []bool{false, true} {
		t.Run(fmt.Sprintf("bidirectional=%v", bidir), func(t *testing.T) { freeRunningLine(t, bidir) })
	}
}

func freeRunningLine(t *testing.T, bidir bool) {
	rounds := 100
	if testing.Short() {
		rounds = 20
	}
	const chunk, skew = 2000, 2
	routers, received := linkedPipeline(t, 4, 2, 3, VCADynamic, bidir)
	last := NodeID(len(routers) - 1)
	offered, parked := 0, 0
	cycle := uint64(0)
	done := make([]atomic.Uint64, len(routers)) // cycles each router has finished
	for round := 0; round < rounds; round++ {
		for _, r := range routers[:last] {
			for r.PendingPackets() < chunk/2 { // two flits or more each: no source runs dry within a chunk
				r.OfferPacket(Packet{Flow: MakeFlow(r.ID, last, 0), Dst: last, Flits: 2 + offered%5})
				offered++
			}
		}
		var wg sync.WaitGroup
		for i, r := range routers {
			wg.Add(1)
			go func(i int, r *Router) {
				defer wg.Done()
				for c := cycle; c < cycle+chunk; c++ {
					for _, j := range []int{i - 1, i + 1} {
						for j >= 0 && j < len(routers) && done[j].Load()+skew < c {
							runtime.Gosched()
						}
					}
					r.PhaseTransfer(c)
					r.PhaseCommit(c)
					done[i].Store(c + 1)
				}
			}(i, r)
		}
		wg.Wait()
		cycle += chunk
		for _, r := range routers {
			n, lost := r.Parked()
			if len(lost) > 0 {
				t.Fatalf("after cycle %d: %v", cycle-1, lost)
			}
			parked += n
		}
	}
	if parked == 0 {
		t.Fatal("no VC was asleep at any meeting point: the test checked nothing")
	}
	// What is left is at most chunk/2 packets of at most 6 flits queued at
	// each of three sources, all leaving over one link at a flit a cycle.
	for end := cycle + 3*chunk/2*6 + 1000; cycle < end && len(*received[last]) < offered; cycle++ {
		step(routers, cycle)
	}
	if got := len(*received[last]); got != offered {
		t.Fatalf("%d of %d packets delivered: the line did not drain", got, offered)
	}
}
