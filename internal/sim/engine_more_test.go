package sim

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBarrierReuseUnderContention stresses sense reversal: one barrier
// reused for thousands of generations by parties that arrive at wildly
// different times (some spin-wait, some sleep into the cond-wait slow
// path), checking that no generation releases early and no party is left
// behind.
func TestBarrierReuseUnderContention(t *testing.T) {
	const parties = 6
	rounds := 2000
	if testing.Short() {
		rounds = 400
	}
	b := NewBarrier(parties)
	var entered atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger arrivals: party 0 dawdles into the sleep path,
				// the rest hit the spin path at staggered offsets.
				if p == 0 && r%64 == 0 {
					time.Sleep(50 * time.Microsecond)
				} else if r%(p+2) == 0 {
					runtime.Gosched()
				}
				entered.Add(1)
				b.Await(func() {
					// The last arriver of generation r must observe every
					// party's arrival for this and all previous generations.
					if got := entered.Load(); got != int64((r+1)*parties) {
						t.Errorf("generation %d: leader saw %d arrivals, want %d",
							r, got, (r+1)*parties)
					}
				})
			}
		}(p)
	}
	wg.Wait()
	if got := entered.Load(); got != int64(parties*rounds) {
		t.Fatalf("total arrivals %d, want %d", got, parties*rounds)
	}
}

// TestBarrierOversubscribedGenerationReentry drives the no-polling path an
// oversubscribed host takes (every party falls straight into the
// mutex+cond sleep): one deliberately slow party lags into cond.Wait
// while the fast parties are released and re-enter the *next* generation.
// Sense reversal must keep the generations apart — a re-entering party
// must never steal a straggler's wakeup or observe a stale sense — and
// the leader of each generation must see exactly one arrival per party.
func TestBarrierOversubscribedGenerationReentry(t *testing.T) {
	const parties = 4
	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	b := NewBarrier(parties)
	// Force the sleep path regardless of the host's core count: this is
	// exactly what NewBarrier does when GOMAXPROCS < parties.
	b.pollFor = 0
	var arrivals atomic.Int64
	var generations atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if p == 0 && r%16 == 0 {
					// The straggler: sleep long enough that the other
					// parties' fast path has them blocked in the next
					// generation's cond.Wait before this one arrives.
					time.Sleep(20 * time.Microsecond)
				}
				arrivals.Add(1)
				b.Await(func() {
					g := generations.Add(1)
					if got := arrivals.Load(); got != g*parties {
						t.Errorf("generation %d: %d arrivals at decision time, want %d",
							g, got, g*parties)
					}
				})
			}
		}(p)
	}
	wg.Wait()
	if got := generations.Load(); got != int64(rounds) {
		t.Fatalf("completed %d generations, want %d", got, rounds)
	}
	if got := arrivals.Load(); got != int64(parties*rounds) {
		t.Fatalf("total arrivals %d, want %d", got, parties*rounds)
	}
}

func TestBarrierSinglePartyRunsAction(t *testing.T) {
	b := NewBarrier(1)
	runs := 0
	for i := 0; i < 100; i++ {
		b.Await(func() { runs++ })
		b.Await(nil)
	}
	if runs != 100 {
		t.Fatalf("action ran %d times, want 100", runs)
	}
}

// TestFastForwardAllIdle: when every tile reports NoEvent and the network
// is empty, the engine must jump straight to the end of the run window —
// executing (nearly) nothing — rather than stepping empty cycles.
func TestFastForwardAllIdle(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		tiles := []Tile{&countTile{}, &countTile{}, &countTile{}, &countTile{}}
		e := NewEngine(tiles, workers, 1, true, nil)
		res := e.Run(0, 100_000, nil)
		if res.Cycles+res.SkippedCycles != 100_000 {
			t.Fatalf("workers=%d: cycles %d + skipped %d != 100000",
				workers, res.Cycles, res.SkippedCycles)
		}
		if res.Cycles > 2 {
			t.Fatalf("workers=%d: executed %d cycles of an entirely idle run", workers, res.Cycles)
		}
	}
}

// TestFastForwardNextEventNowPlusOne: a tile whose next event is always
// the very next cycle gives fast-forwarding nothing to skip; every cycle
// must execute.
func TestFastForwardNextEventNowPlusOne(t *testing.T) {
	tiles := []Tile{&countTile{next: 1}, &countTile{next: 1}}
	e := NewEngine(tiles, 1, 1, true, nil)
	res := e.Run(0, 500, nil)
	if res.SkippedCycles != 0 {
		t.Fatalf("skipped %d cycles past now+1 events", res.SkippedCycles)
	}
	if res.Cycles != 500 {
		t.Fatalf("executed %d cycles, want 500", res.Cycles)
	}
	if n := len(tiles[0].(*countTile).transfers); n != 500 {
		t.Fatalf("tile saw %d transfers, want 500", n)
	}
}

// TestFastForwardSingleWorkerLandsOnEvent: with one worker (leader does
// everything) the engine must still stop the jump exactly at the earliest
// scheduled event and resume cycle-by-cycle there.
func TestFastForwardSingleWorkerLandsOnEvent(t *testing.T) {
	tiles := []Tile{&countTile{next: 700}, &countTile{}}
	e := NewEngine(tiles, 1, 1, true, nil)
	res := e.Run(0, 1000, nil)
	if res.Cycles+res.SkippedCycles != 1000 {
		t.Fatalf("cycles %d + skipped %d != 1000", res.Cycles, res.SkippedCycles)
	}
	ct := tiles[0].(*countTile)
	sawEvent := false
	for _, c := range ct.transfers {
		if c == 700 {
			sawEvent = true
		}
		if c > 0 && c < 700 && c != ct.transfers[0] {
			// Cycles strictly inside the idle stretch may only appear before
			// the first fast-forward decision (cycle 0 executes).
			if c != 0 {
				t.Fatalf("idle cycle %d was executed", c)
			}
		}
	}
	if !sawEvent {
		t.Fatal("event cycle 700 was skipped over")
	}
}

// TestFastForwardInFlightBlocksSkip: a non-empty network must veto
// fast-forwarding even when every tile reports NoEvent — in-flight flits
// still need cycle-by-cycle delivery.
func TestFastForwardInFlightBlocksSkip(t *testing.T) {
	inflight := new(atomic.Int64)
	inflight.Store(1)
	tiles := []Tile{&countTile{}, &countTile{}}
	e := NewEngine(tiles, 2, 1, true, inflight)
	res := e.Run(0, 200, nil)
	if res.SkippedCycles != 0 {
		t.Fatalf("skipped %d cycles with flits in flight", res.SkippedCycles)
	}
	if res.Cycles != 200 {
		t.Fatalf("executed %d cycles, want 200", res.Cycles)
	}
}

// exchangeTile is a deterministic communicating tile for the determinism
// test: each cycle it folds the value its left neighbour handed it the
// cycle before into a checksum (PhaseTransfer) and hands a value derived
// from its private RNG to its right neighbour (PhaseCommit). The mailbox
// has a slot per cycle parity, written in one cycle and read in the next,
// so the pattern is race-free in cycle-accurate mode even when a
// neighbour's PhaseCommit runs before this tile's PhaseTransfer of the
// same cycle — mirroring how routers hand each other link demand.
type exchangeTile struct {
	id       int
	rng      *RNG
	mailbox  *[2][]uint64 // shared across tiles; slot i is written only by tile i-1
	n        int
	checksum uint64
}

func (x *exchangeTile) PhaseTransfer(cycle uint64) {
	x.checksum = x.checksum*0x9E3779B97F4A7C15 + x.mailbox[(cycle-1)&1][x.id]
}

func (x *exchangeTile) PhaseCommit(cycle uint64) {
	x.mailbox[cycle&1][(x.id+1)%x.n] = x.rng.Uint64() + cycle
}

func (x *exchangeTile) NextEvent(now uint64) uint64 { return now + 1 }

// TestEngineDeterminismAcrossWorkers: identical seeds must give
// bit-identical per-tile state for 1 worker and any other worker count —
// the paper's core determinism claim (§II-C), here exercised at the
// engine level with communicating tiles.
func TestEngineDeterminismAcrossWorkers(t *testing.T) {
	const n = 16
	cycles := uint64(1000)
	workerSet := []int{2, 3, 4, 8, 16}
	if testing.Short() {
		// The property is worker-count independence, not endurance: a few
		// hundred cycles across two partitionings already exercises every
		// barrier path, and race-mode spin barriers are slow on small hosts.
		cycles = 200
		workerSet = []int{2, 4}
	}
	run := func(workers int) []uint64 {
		mailbox := &[2][]uint64{make([]uint64, n), make([]uint64, n)}
		tiles := make([]Tile, n)
		for i := 0; i < n; i++ {
			tiles[i] = &exchangeTile{
				id:      i,
				rng:     NewRNG(DeriveSeed(0x5EED, "tile")*uint64(i+1) + uint64(i)),
				mailbox: mailbox,
				n:       n,
			}
		}
		e := NewEngine(tiles, workers, 1, false, nil)
		if res := e.Run(0, cycles, nil); res.Cycles != cycles {
			t.Fatalf("workers=%d ran %d cycles, want %d", workers, res.Cycles, cycles)
		}
		out := make([]uint64, n)
		for i, tl := range tiles {
			out[i] = tl.(*exchangeTile).checksum
		}
		return out
	}
	ref := run(1)
	for _, workers := range workerSet {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: tile %d checksum %#x != 1-worker %#x",
					workers, i, got[i], ref[i])
			}
		}
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	if DeriveSeed(1, "a") != DeriveSeed(1, "a") {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, "a") == DeriveSeed(1, "b") {
		t.Fatal("different keys derived the same seed")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Fatal("different bases derived the same seed")
	}
	// The derived stream must not be the base stream.
	if DeriveSeed(1, "") == 1 {
		t.Fatal("empty key returned the base seed unmixed")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, string(rune('a'+i%26))+string(rune('0'+i/26)))
		if seen[s] {
			t.Fatalf("seed collision at %d", i)
		}
		seen[s] = true
	}
}

// panicTile panics in the given phase of one cycle and counts the cycles
// it was stepped through otherwise (read only after Run has returned).
type panicTile struct {
	at       uint64 // cycle that panics; NoEvent never does
	inCommit bool
	stepped  uint64
	commits  uint64
}

func (p *panicTile) PhaseTransfer(cycle uint64) {
	if cycle == p.at && !p.inCommit {
		panic("tile blew up in transfer")
	}
	p.stepped++
}

func (p *panicTile) PhaseCommit(cycle uint64) {
	if cycle == p.at && p.inCommit {
		panic("tile blew up in commit")
	}
	p.commits++
}

func (p *panicTile) NextEvent(now uint64) uint64 { return now + 1 }

// TestEngineContainsTilePanic: a tile that panics on an engine worker must
// end the run with RunResult.Err instead of killing the process, and must
// not leave the other workers parked at the barrier waiting for it.
func TestEngineContainsTilePanic(t *testing.T) {
	const at = 37
	for _, tc := range []struct {
		name       string
		workers    int
		syncPeriod int
		inCommit   bool
	}{
		{"1-worker", 1, 1, false},
		{"3-workers", 3, 1, false},
		{"3-workers-commit", 3, 1, true},
		{"3-workers-sync-5", 3, 5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tiles := make([]Tile, 6)
			for i := range tiles {
				tiles[i] = &panicTile{at: NoEvent}
			}
			// The last tile starts in the last worker's span, but at sync
			// period 1 any worker may take it over: the error names the
			// tile, not a worker.
			tiles[5] = &panicTile{at: at, inCommit: tc.inCommit}
			eng := NewEngine(tiles, tc.workers, tc.syncPeriod, false, nil)

			done := make(chan RunResult, 1)
			go func() { done <- eng.Run(0, 1000, nil) }()
			var res RunResult
			select {
			case res = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("Run did not return: workers left waiting at the barrier")
			}
			var pe *PanicError
			if !errors.As(res.Err, &pe) {
				t.Fatalf("Err = %v, want a *PanicError", res.Err)
			}
			if pe.Tile != 5 || len(pe.Stack) == 0 {
				t.Errorf("PanicError = tile %d, %d stack bytes", pe.Tile, len(pe.Stack))
			}
			if res.Cycles >= 1000 {
				t.Errorf("run executed %d cycles, want a halt near cycle %d", res.Cycles, at)
			}
			// Halted at the next sync point: no tile ran past the window
			// the panic happened in.
			limit := uint64(at + tc.syncPeriod)
			for i, tile := range tiles {
				if n := tile.(*panicTile).stepped; n > limit {
					t.Errorf("tile %d stepped %d cycles, want <= %d", i, n, limit)
				}
				// Cycle-accurate: a survivor may finish the cycle the panic
				// happened in (its commit waits for no other tile's
				// transfer), but the broken barrier must keep it from
				// committing any later one.
				if n := tile.(*panicTile).commits; tc.syncPeriod == 1 && n > at+1 {
					t.Errorf("tile %d committed %d cycles, want <= %d: a phase ran past the broken barrier", i, n, at+1)
				}
			}
		})
	}
}

// TestEngineOneBarrierPerChunk: the workers meet once per synchronization
// chunk — once per cycle when cycle-accurate — and nowhere else.
func TestEngineOneBarrierPerChunk(t *testing.T) {
	const cycles = 100
	for _, period := range []int{1, 5, 7} {
		tiles := make([]Tile, 6)
		for i := range tiles {
			tiles[i] = &panicTile{at: NoEvent}
		}
		e := NewEngine(tiles, 3, period, false, nil)
		res := e.Run(0, cycles, nil)
		if res.Err != nil || res.Cycles != cycles {
			t.Fatalf("period %d: %+v", period, res)
		}
		if got, want := e.barrier.gen.Load(), uint64((cycles+period-1)/period); got != want {
			t.Errorf("period %d: %d barrier generations for %d cycles, want %d", period, got, cycles, want)
		}
	}
}

// TestBarrierBreakReleasesWaiters: Break frees parties already parked and
// makes their Await and every later one skip its action and report false.
func TestBarrierBreakReleasesWaiters(t *testing.T) {
	b := NewBarrier(3)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if met, _ := b.Await(func() { t.Error("action ran on a broken barrier") }); met {
					t.Error("Await reported a meeting on a broken barrier")
				}
			}
		}()
	}
	b.Break() // the third party never arrives
	wg.Wait()
}
