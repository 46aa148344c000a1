package noc

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// checkMask asserts the occupancy mask's invariant at a quiescent point:
// for every ingress VC of every router, bit i of the router's mask is set
// exactly when vcs[i]'s buffer holds a flit, and the buffer is wired to
// that bit.
func checkMask(t *testing.T, when string, routers []*Router) {
	t.Helper()
	for _, r := range routers {
		if want := (len(r.vcs) + 63) / 64; len(r.occ) != want {
			t.Fatalf("%s: router %d has %d mask words for %d VCs, want %d", when, r.ID, len(r.occ), len(r.vcs), want)
		}
		for i := range r.vcs {
			b := &r.vcs[i].buf
			if b.occ != &r.occ[i/64] || int(b.bit) != i%64 {
				t.Fatalf("%s: router %d vc %d is not wired to bit %d of mask word %d", when, r.ID, i, i%64, i/64)
			}
			set := r.occ[i/64].Load()>>(i%64)&1 != 0
			if resident := b.Len(); set != (resident > 0) {
				t.Fatalf("%s: router %d vc %d holds %d flits but its occupancy bit is %v", when, r.ID, i, resident, set)
			}
		}
	}
}

// stepWorkers advances routers one cycle as an engine with that many
// workers does: each worker runs the positive edge of its share of the
// routers, all meet, then the same for the negative edge.
func stepWorkers(routers []*Router, workers int, cycle uint64) {
	if workers == 1 {
		step(routers, cycle)
		return
	}
	for _, phase := range []func(r *Router){
		func(r *Router) { r.PhaseTransfer(cycle) },
		func(r *Router) { r.PhaseCommit(cycle) },
	} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(routers); i += workers {
					phase(routers[i])
				}
			}(w)
		}
		wg.Wait()
	}
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

// TestOccupancyMaskTracksBuffers checks the mask against the buffers at
// every cycle boundary of a congested line and of a machine that is idle,
// bursts and goes idle again, stepped by one worker and by three, with one
// mask word per router and with two.
func TestOccupancyMaskTracksBuffers(t *testing.T) {
	burst := func(routers []*Router) {
		for i := 0; i < 3; i++ {
			routers[0].OfferPacket(Packet{Flow: MakeFlow(0, 3, 0), Dst: 3, Flits: 5})
			routers[2].OfferPacket(Packet{Flow: MakeFlow(2, 3, 1), Dst: 3, Flits: 2})
		}
	}
	for _, vcs := range []int{2, 40} { // 40 VCs on each of 3 ports: two mask words
		type outcome struct {
			received [][]Packet
			rng      []uint64
		}
		var first *outcome
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("vcs%d/workers%d", vcs, workers)
			routers, received := pipeline(t, 4, vcs, 3, VCADynamic)
			if words := len(routers[1].occ); words != (3*vcs+63)/64 {
				t.Fatalf("%s: middle router has %d mask words", name, words)
			}
			checkMask(t, name+" when built", routers)
			cycle := uint64(0)
			run := func(what string, cycles int) {
				for end := cycle + uint64(cycles); cycle < end; cycle++ {
					stepWorkers(routers, workers, cycle)
					checkMask(t, fmt.Sprintf("%s %s, after cycle %d", name, what, cycle), routers)
				}
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
			run("congested", 400)
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

// TestOccupancyMaskTracksBuffersAfterRestore: the mask is not in the
// snapshot; VCBuffer.LoadState rebuilds each bit from what it restored,
// whichever router loads first, and the restored flits are found through
// it.
func TestOccupancyMaskTracksBuffersAfterRestore(t *testing.T) {
	routers, _ := pipeline(t, 4, 2, 3, VCADynamic)
	congest(routers)
	for c := uint64(0); c < 60; c++ {
		step(routers, c)
	}
	resident := int64(0)
	blobs := make([][]byte, len(routers))
	for i, r := range routers {
		blobs[i] = saveRouter(t, r, 60)
		resident += r.ResidentFlits()
	}
	if resident == 0 {
		t.Fatal("nothing resident at the snapshot: the restore checked nothing")
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
		checkMask(t, fmt.Sprintf("restored in order %v", order), fresh)
		for c := uint64(60); c < 460; c++ {
			step(fresh, c)
			checkMask(t, fmt.Sprintf("restored in order %v, after cycle %d", order, c), fresh)
		}
		for _, r := range fresh {
			if r.ResidentFlits() != 0 || r.PendingPackets() != 0 {
				t.Fatalf("restored in order %v: router %d never drained: a restored flit was not found", order, r.ID)
			}
		}
	}
}

// TestOccupancyMaskTracksBuffersAfterShardApply splits a line between two
// replicas as a sharded run does, with traffic from the first router only:
// the second replica's span has nothing resident, nothing pending and is
// skipping its cycles when ShardBoundary.Apply pushes the first boundary
// flit into it. The push must set the occupancy bit (Apply goes through the
// same publish as every other push), so that the flit moves on the next
// cycle exactly as in the whole line: the mask matches the buffers at every
// boundary, the in-span routers' counters and generator positions equal the
// whole line's after every cycle, and both deliver the same packets.
func TestOccupancyMaskTracksBuffersAfterShardApply(t *testing.T) {
	const n, cut = 4, 2
	offer := func(routers []*Router) {
		for i := 0; i < 4; i++ {
			routers[0].OfferPacket(Packet{Flow: MakeFlow(0, n-1, 0), Dst: n - 1, Flits: 6})
		}
	}
	woken := false
	wholeGot, splitGot := runSplitLine(t, n, cut, 300, offer, func(c uint64, whole []*Router, reps [2][]*Router) {
		// The consumer of the boundary has never held a flit, so it slept
		// through this cycle; now it holds one.
		if consumer := reps[1][cut]; consumer.Stats().BufWrites == 0 && consumer.anyOccupied() {
			woken = true
		}
		for s, lo := range []int{0, cut} {
			checkMask(t, fmt.Sprintf("replica %d after the exchange of cycle %d", s, c), reps[s])
			for i := lo; i < lo+n/2; i++ {
				if a, b := *reps[s][i].Stats(), *whole[i].Stats(); !reflect.DeepEqual(a, b) {
					t.Fatalf("after cycle %d: router %d of replica %d counts %+v, the whole line's counts %+v", c, i, s, a, b)
				}
				if a, b := reps[s][i].rng.State(), whole[i].rng.State(); a != b {
					t.Fatalf("after cycle %d: router %d of replica %d left its generator at %#x, the whole line's at %#x", c, i, s, a, b)
				}
			}
		}
	})
	if !woken {
		t.Fatal("no Apply reached the consumer while it had nothing resident: the test checked nothing")
	}
	if len(wholeGot) != 4 {
		t.Fatalf("the whole line delivered %d packets, want 4", len(wholeGot))
	}
	if !reflect.DeepEqual(splitGot, wholeGot) {
		t.Fatalf("split run delivered %d packets, whole line %d, or different ones", len(splitGot), len(wholeGot))
	}
}
