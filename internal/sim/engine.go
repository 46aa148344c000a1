// Package sim implements HORNET's parallel cycle-level simulation engine:
// deterministic per-tile PRNGs, a spin-then-park barrier (a waiter polls
// the generation word for as long as parking would cost, yielding to the
// Go scheduler between bursts, and only then sleeps), and a worker pool
// that steps tiles through two-phase clock cycles and meets once per
// synchronization chunk — one barrier per cycle when cycle-accurate
// (sync period 1), one per period when loosely synchronized — plus
// fast-forwarding over provably idle stretches (paper §II-C, §IV-B).
// A run makes one callback at a sync point, its stop predicate, on the
// barrier leader while every other worker is parked: the one place a
// caller may read the whole machine mid-run.
// Cycle-accurate workers claim a cycle's tiles in small chunks and, once
// their own span is done, take over the tail of a slower one, so a tile is
// stepped by one worker at a time, handed over only at the barrier.
package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hornet/internal/obs"
)

// NoEvent is returned by Tile.NextEvent when the tile will never act again
// on its own (e.g. a halted core or an exhausted trace).
const NoEvent = ^uint64(0)

// Tile is one unit of parallel simulation work: a router plus any traffic
// generators, cores and controllers attached to it. The engine calls
// PhaseTransfer (positive edge: compute and hand off flits; effects are
// stamped to become visible next cycle) and PhaseCommit (negative edge:
// make written state visible, fold statistics) exactly once per simulated
// cycle, in that order, and both phases of a cycle on the same worker. A
// tile is stepped by one worker at a time, handed over only at the
// barrier, but its ingress buffers may be written concurrently by
// neighbouring tiles' PhaseTransfer, and any other tile may run its
// PhaseCommit of a cycle before this tile's PhaseTransfer of the same
// cycle: whatever a tile writes for another in either phase must be
// readable only from the next cycle on.
type Tile interface {
	PhaseTransfer(cycle uint64)
	PhaseCommit(cycle uint64)
	// NextEvent returns the earliest cycle strictly after now at which the
	// tile could initiate new activity assuming nothing arrives over the
	// network, or NoEvent. Used only when fast-forwarding is enabled; a
	// conservative answer of now+1 is always safe.
	NextEvent(now uint64) uint64
}

// RunResult summarizes one Engine.Run invocation.
type RunResult struct {
	Cycles        uint64        // simulated cycles actually executed
	SkippedCycles uint64        // cycles jumped over by fast-forwarding
	Wall          time.Duration // host wall-clock time
	Workers       int
	// Stopped reports that the run ended because the stop predicate fired
	// rather than because the cycle bound was reached. Callers resuming a
	// run in chunks use it to distinguish "workload finished" from "chunk
	// finished".
	Stopped bool
	// Err is non-nil when the run aborted: a tile panicked on an engine
	// worker (a *PanicError). The executed/skipped counts reflect progress
	// made before the failure; after a panic the tiles are in no defined
	// state and must not be run again.
	Err error
}

// PanicError is RunResult.Err for a run that stopped because stepping a
// tile (or the sync-point action) panicked on an engine worker.
type PanicError struct {
	Worker int    // index of the worker that panicked
	Tile   int    // index of the tile whose step panicked; -1 for the sync-point action
	Value  any    // the value passed to panic
	Stack  []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	if e.Tile < 0 {
		return fmt.Sprintf("sim: engine worker %d panicked: %v", e.Worker, e.Value)
	}
	return fmt.Sprintf("sim: engine worker %d panicked stepping tile %d: %v", e.Worker, e.Tile, e.Value)
}

func (r RunResult) String() string {
	return fmt.Sprintf("cycles=%d skipped=%d wall=%v workers=%d",
		r.Cycles, r.SkippedCycles, r.Wall, r.Workers)
}

// Engine steps a fixed set of tiles in parallel.
type Engine struct {
	tiles       []Tile
	workers     int
	syncPeriod  int
	fastForward bool

	// inflight counts flits resident anywhere in the simulated network
	// (VC buffers and ejection queues). Tiles update it via InFlight().
	inflight *atomic.Int64

	// cross-barrier control written by the barrier leader.
	nextCycle atomic.Uint64
	halted    atomic.Bool
	stopped   atomic.Bool
	skipped   atomic.Uint64
	errMu     sync.Mutex
	runErr    error // first failure of the current run (guarded by errMu)

	// probe, when non-nil, records cycles/sec and per-partition compute
	// vs. barrier-wait time. The nil case costs one predictable branch per
	// phase and zero allocations (guarded by TestEngineHotPathAllocFree).
	probe *obs.SimProbe

	// barrier is the current run's, met once per synchronization chunk.
	barrier *Barrier

	// claims holds one claim word per worker span while workers steal
	// (sync period 1, two or more workers); see spanClaims.
	claims []spanClaims
}

// SetProbe attaches (or, with nil, detaches) an engine probe. Call
// between runs, not while one is in flight.
func (e *Engine) SetProbe(p *obs.SimProbe) { e.probe = p }

// Skipped returns the cycles fast-forwarded so far in the current run.
// Read from the run's stop predicate, it counts the jumps taken before
// the sync point being decided.
func (e *Engine) Skipped() uint64 { return e.skipped.Load() }

// fail records the run's first failure and halts the run: every worker
// exits at its next loop check.
func (e *Engine) fail(err error) {
	e.errMu.Lock()
	if e.runErr == nil {
		e.runErr = err
	}
	e.errMu.Unlock()
	e.halted.Store(true)
}

// NewEngine creates an engine stepping tiles with the given worker count
// (0 means GOMAXPROCS, capped at the tile count), synchronization period
// (1 = cycle-accurate) and fast-forward setting. inflight is the shared
// in-network flit counter the tiles maintain; pass nil to allocate one.
func NewEngine(tiles []Tile, workers, syncPeriod int, fastForward bool, inflight *atomic.Int64) *Engine {
	if len(tiles) == 0 {
		panic("sim: engine needs at least one tile")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tiles) {
		workers = len(tiles)
	}
	if syncPeriod < 1 {
		syncPeriod = 1
	}
	if inflight == nil {
		inflight = new(atomic.Int64)
	}
	return &Engine{
		tiles:       tiles,
		workers:     workers,
		syncPeriod:  syncPeriod,
		fastForward: fastForward,
		inflight:    inflight,
	}
}

// InFlight exposes the global in-network flit counter that tiles maintain.
func (e *Engine) InFlight() *atomic.Int64 { return e.inflight }

// Workers returns the effective worker count.
func (e *Engine) Workers() int { return e.workers }

// ShardSpan returns the contiguous tile span [lo,hi) of part index among
// count equal parts of n tiles: the engine's partition function, and the
// span the i-th engine worker of a `shards: N` run starts from.
func ShardSpan(n, count, index int) (lo, hi int) {
	if count < 1 || index < 0 || index >= count || count > n {
		panic(fmt.Sprintf("sim: bad span n=%d count=%d index=%d", n, count, index))
	}
	base, rem := n/count, n%count
	lo = index*base + min(index, rem)
	hi = lo + base
	if index < rem {
		hi++
	}
	return lo, hi
}

// partition returns the contiguous tile span [lo,hi) owned by worker w.
// Contiguous blocks keep neighbouring mesh tiles on the same worker,
// which is what HORNET's equal-division mapping does. At sync period 1
// the span is only where the worker starts: a worker that finishes its
// span takes chunks off the tail of another's (spanClaims), so a tile is
// stepped by one worker at a time, handed over only at the barrier.
// Loosely synchronized workers keep their spans: one may be cycles ahead
// of another, so no chunk of a cycle is free for both.
func (e *Engine) partition(w int) (lo, hi int) {
	return ShardSpan(len(e.tiles), e.workers, w)
}

// Run simulates the half-open cycle window [start, start+cycleCount):
// the second argument is a cycle COUNT, never an absolute end cycle —
// Run(100, 50) advances the clock from 100 to at most 150. If stop is
// non-nil it is evaluated exactly once at every synchronization point —
// including the final one — and ends the run early when it returns true.
// It is the run's one sync-point callback: the barrier leader calls it
// with every other worker parked, so it needs no internal locking and may
// read tile state directly (with Skipped for the jumps so far), but the
// whole engine waits for it. The stop check happens before fast-forward
// target election, so a stopping run never jumps past its stop point.
// Run returns once all workers have finished.
func (e *Engine) Run(start, cycleCount uint64, stop func(cycle uint64) bool) RunResult {
	return e.run(start, cycleCount, stop, false)
}

// RunResumed is Run for the continuation of an earlier chunk of the same
// simulation (checkpoint autosave cadence, restored snapshots). The only
// difference: a fast-forwarding engine whose network is idle may jump over
// leading cycles before executing anything, exactly as the uninterrupted
// run would have jumped from within its previous chunk. This is what makes
// chunked execution byte-identical to unchunked execution.
func (e *Engine) RunResumed(start, cycleCount uint64, stop func(cycle uint64) bool) RunResult {
	return e.run(start, cycleCount, stop, true)
}

func (e *Engine) run(start, cycleCount uint64, stop func(cycle uint64) bool, resume bool) RunResult {
	end := start + cycleCount
	e.nextCycle.Store(start)
	e.halted.Store(false)
	e.stopped.Store(false)
	e.skipped.Store(0)
	e.runErr = nil

	began := time.Now()
	var executed atomic.Uint64

	// apply acts on a synchronization-point decision; it runs on the barrier
	// leader, or before any worker starts.
	apply := func(dec syncDecision) {
		if dec.skipped != 0 {
			e.skipped.Add(dec.skipped)
		}
		if dec.stopped {
			e.stopped.Store(true)
		}
		if dec.halt {
			e.halted.Store(true)
		}
		e.nextCycle.Store(dec.next)
	}

	// Join synchronization: before anything executes, a resumed
	// fast-forwarding run may jump past idle leading cycles — from the
	// cycle just before this chunk, the skip the previous chunk's leader
	// would have taken had the run not been split here. A chunk skipped
	// whole halts here: the workers below start and return at once.
	vote := syncVote{join: true, cycle: start, end: end, inflight: e.inflight.Load(), earliest: start}
	if resume && start > 0 && e.mayJump(vote.inflight) {
		vote.earliest = e.earliestEvent(start - 1)
	}
	dec := decideSync(vote)
	apply(dec)
	start = dec.next

	e.barrier = NewBarrier(e.workers)

	// The stop predicate is consulted exactly once per synchronization
	// point, even when the run is about to end, and the decision honours it
	// before any fast-forward accounting — so a stop request can never be
	// outrun by a jump and the serve layer's final-cycle side effects always
	// fire.
	leader := func(cycleJustFinished uint64) {
		vote := syncVote{
			cycle:    cycleJustFinished,
			end:      end,
			inflight: e.inflight.Load(),
			earliest: cycleJustFinished + 1,
			stop:     stop != nil && stop(cycleJustFinished),
		}
		if e.mayJump(vote.inflight) {
			vote.earliest = e.earliestEvent(cycleJustFinished)
		}
		apply(decideSync(vote))
	}

	// Cycle-accurate workers steal: every worker is on the same cycle
	// between two barriers, so a chunk of any span can run on any of them.
	// A loose chunk runs each span in lockstep on its own worker instead.
	steal := e.syncPeriod == 1 && e.workers > 1
	if steal {
		if len(e.claims) != e.workers {
			e.claims = make([]spanClaims, e.workers)
		}
		for w := range e.claims {
			lo, hi := e.partition(w)
			e.claims[w].reset(lo, hi)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// tile is the tile being stepped, -1 outside a step: what a
			// PanicError names.
			tile := -1
			// A panicking tile must not take the process down, nor leave
			// the other workers waiting at the barrier for this one. The
			// recover sits outside the cycle loop: the hot path pays
			// nothing for it.
			defer func() {
				if p := recover(); p != nil {
					e.fail(&PanicError{Worker: w, Tile: tile, Value: p, Stack: debug.Stack()})
					e.barrier.Break()
				}
			}()
			step := func(lo, hi int, c uint64) {
				ts := e.tiles[lo:hi]
				for i, t := range ts {
					tile = lo + i
					t.PhaseTransfer(c)
				}
				for i, t := range ts {
					tile = lo + i
					t.PhaseCommit(c)
				}
				tile = -1
			}
			lo, hi := e.partition(w)
			// The partition accumulator is fetched once per Run (it may
			// allocate on first use); the per-cycle hot path below only
			// branches on `part != nil` and does atomic adds.
			var part *obs.PartitionProbe
			if e.probe != nil {
				part = e.probe.Partition(w, e.workers)
			}
			var t0, t1 time.Time
			var round uint64 // cycles this worker has stepped in this run
			for {
				cycle := e.nextCycle.Load()
				if cycle >= end || e.halted.Load() {
					return
				}
				// Run a synchronization chunk: syncPeriod cycles (or up to
				// end), then meet the other workers once. Nothing a tile
				// writes for another is readable before the next cycle, so
				// one chunk of tiles' negative edge may run before another
				// chunk's positive edge of the same cycle.
				chunkEnd := min(cycle+uint64(e.syncPeriod), end)
				if part != nil {
					t0 = time.Now()
				}
				c := cycle
				for ; c < chunkEnd && !e.halted.Load(); c++ {
					// Keep workers interleaved inside a loose chunk so
					// cross-worker credits and flits stay as fresh as
					// concurrent hardware threads would see them; on hosts
					// with fewer cores than workers this prevents
					// whole-chunk serialization from starving boundary
					// links. A single worker has nobody to interleave with.
					if c > cycle && e.workers > 1 {
						runtime.Gosched()
					}
					if !steal {
						step(lo, hi, c)
						continue
					}
					// Own span from the front, then the others' from the
					// back, until every chunk of the cycle is claimed.
					round++
					for v := 0; v < e.workers; v++ {
						span := &e.claims[(w+v)%e.workers]
						for {
							clo, chi, ok := span.take(round, v > 0)
							if !ok {
								break
							}
							step(clo, chi, c)
						}
					}
				}
				if w == 0 {
					executed.Add(c - cycle)
				}
				if part != nil {
					t1 = time.Now()
					part.AddCompute(t1.Sub(t0))
					part.AddCycles(c - cycle)
				}
				last := c - 1
				met, parked := e.barrier.Await(func() { leader(last) })
				if !met {
					return
				}
				if part != nil {
					part.AddBarrier(time.Since(t1), parked)
				}
			}
		}(w)
	}
	wg.Wait()

	res := RunResult{
		Cycles:        executed.Load(),
		SkippedCycles: e.skipped.Load(),
		Wall:          time.Since(began),
		Workers:       e.workers,
		Stopped:       e.stopped.Load(),
		Err:           e.runErr,
	}
	if e.probe != nil {
		e.probe.RunDone(res.Cycles, res.SkippedCycles, res.Wall)
	}
	return res
}

// chunkTiles is how many tiles a stealing worker claims at once: small
// enough that a span that runs slow this cycle sheds its tail to the idle
// workers, large enough that claims stay rare next to the work. On the
// 32x32 mesh at two workers 16 measured best; 8 and 32 about the same, 64
// worse.
const chunkTiles = 16

// Layout of a claim word: the chunks claimed from the back in the low
// claimCountBits bits, the chunks claimed from the front above them, and
// the round tag in the 16 bits from claimTagShift up.
const (
	claimCountBits = 24
	claimCountMask = 1<<claimCountBits - 1
	claimTagShift  = 2 * claimCountBits
)

// spanClaims hands out the chunks of one worker span for one cycle. Its
// word records how many chunks were claimed from each end, tagged with the
// claimers' round — the number of cycles each worker has stepped in the
// run, the same on every worker between two barriers. A word written in an
// earlier round reads as nothing claimed, so no leader resets it: a claim
// is one compare-and-swap. Every round claims every chunk of every span,
// so consecutive rounds only have to differ in the tag, and they do.
type spanClaims struct {
	word   atomic.Uint64
	lo, hi int    // the span's tiles
	chunks uint64 // ceil((hi-lo)/chunkTiles)
	_      [cacheLine - 32]byte
}

// reset points the claims at tiles [lo,hi) and forgets every earlier
// round's; it runs before the run's workers start.
func (s *spanClaims) reset(lo, hi int) {
	s.word.Store(0)
	s.lo, s.hi = lo, hi
	s.chunks = uint64(hi-lo+chunkTiles-1) / chunkTiles
	if s.chunks > claimCountMask {
		panic(fmt.Sprintf("sim: a worker span of %d tiles has more chunks than a claim word counts", hi-lo))
	}
}

// take claims round's next unclaimed chunk of the span — from the back for
// a thief, from the front for the span's own worker — and returns its
// tiles, or ok false once every chunk of the round is claimed.
func (s *spanClaims) take(round uint64, thief bool) (lo, hi int, ok bool) {
	tag := round << claimTagShift
	for {
		old := s.word.Load()
		var front, back uint64
		if old>>claimTagShift == tag>>claimTagShift {
			front, back = old>>claimCountBits&claimCountMask, old&claimCountMask
		}
		if front+back >= s.chunks {
			return 0, 0, false
		}
		i := front
		if thief {
			back++
			i = s.chunks - back
		} else {
			front++
		}
		if s.word.CompareAndSwap(old, tag|front<<claimCountBits|back) {
			lo = s.lo + int(i)*chunkTiles
			return lo, min(lo+chunkTiles, s.hi), true
		}
	}
}

// syncVote is what the barrier leader knows at a synchronization point.
type syncVote struct {
	// join marks the run-start synchronization: cycle is the cycle about
	// to execute (nothing has run yet), and the decision may fast-forward
	// past it (a resumed run's pre-jump).
	join bool
	// cycle is the cycle just finished, or for a join the first cycle of
	// the run; end is the run's exclusive cycle bound.
	cycle, end uint64
	// inflight is the in-network flit count.
	inflight int64
	// earliest is the earliest cycle strictly after cycle at which a tile
	// could act on its own, NoEvent if never, or cycle+1 when the engine
	// does not fast-forward.
	earliest uint64
	// stop is the run's stop predicate (cancellation, completion).
	stop bool
}

// syncDecision is the outcome of one synchronization point.
type syncDecision struct {
	next    uint64 // the next cycle to execute (or end)
	skipped uint64 // cycles fast-forwarded over at this point
	halt    bool   // the run ends after this point
	stopped bool   // it ends by the stop predicate, not by reaching end
}

// decideSync is the engine's synchronization-point rule: the stop
// predicate is evaluated before fast-forward accounting (a stopping run
// must not jump past its stop point), only a drained network jumps, and a
// jump is clamped to end.
func decideSync(v syncVote) syncDecision {
	if v.join {
		// Run-start alignment: possibly pre-jump past idle leading cycles
		// (resumed runs), never evaluate stop.
		next := v.cycle
		var skipped uint64
		if v.inflight == 0 && v.earliest > next {
			t := min(v.earliest, v.end)
			skipped = t - next
			next = t
		}
		return syncDecision{next: next, skipped: skipped, halt: next >= v.end}
	}
	next := v.cycle + 1
	var skipped uint64
	if !v.stop && v.inflight == 0 && v.earliest > next {
		t := min(v.earliest, v.end)
		skipped = t - next
		next = t
	}
	return syncDecision{next: next, skipped: skipped, halt: next >= v.end || v.stop, stopped: v.stop}
}

// mayJump reports whether a vote's earliest is worth scanning the tiles
// for: only a fast-forwarding engine jumps, and not while flits are in
// flight.
func (e *Engine) mayJump(inflight int64) bool {
	return e.fastForward && inflight == 0
}

// earliestEvent scans the tiles for the soonest self-initiated activity.
// Called only by the barrier leader while all workers are blocked, so the
// tiles are quiescent and safe to query.
func (e *Engine) earliestEvent(now uint64) uint64 {
	earliest := uint64(NoEvent)
	for _, t := range e.tiles {
		if ev := t.NextEvent(now); ev < earliest {
			earliest = ev
		}
	}
	return earliest
}
