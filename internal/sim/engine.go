// Package sim implements HORNET's parallel cycle-level simulation engine:
// deterministic per-tile PRNGs, a spin-then-park barrier (a waiter polls
// the generation word for as long as parking would cost, yielding to the
// Go scheduler between bursts, and only then sleeps), and a worker pool
// that steps tiles through two-phase clock cycles and meets once per
// synchronization chunk — one barrier per cycle when cycle-accurate
// (sync period 1), one per period when loosely synchronized — plus
// fast-forwarding over provably idle stretches (paper §II-C, §IV-B).
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
	// Stopped reports that the run ended because the stop predicate (or,
	// for sharded runs, the group decision) fired rather than because the
	// cycle bound was reached. Callers resuming a run in chunks use it to
	// distinguish "workload finished" from "chunk finished".
	Stopped bool
	// Err is non-nil when the run aborted: the shard coupler failed, or a
	// tile panicked on an engine worker (a *PanicError). The executed/
	// skipped counts reflect progress made before the failure; after a
	// panic the tiles are in no defined state and must not be run again.
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

	// The engine owns tiles [lo,hi). In single-process runs that is every
	// tile; a sharded engine builds the full tile set (so boundary wiring
	// and node numbering match the unsharded system) but steps only its
	// span, delegating cross-shard agreement to the coupler.
	lo, hi  int
	coupler ShardCoupler
	// done is the shard's local completion predicate (AND-combined across
	// shards by the coupler's decision); nil when the run has none.
	done func() bool

	// inflight counts flits resident anywhere in the simulated network
	// (VC buffers and ejection queues). Tiles update it via InFlight().
	// Under sharding each process observes only its local injections and
	// deliveries, so the counter can go negative; only the cross-shard sum
	// is meaningful and only the coupler's decision consumes it.
	inflight *atomic.Int64

	// cross-barrier control written by the barrier leader.
	nextCycle atomic.Uint64
	halted    atomic.Bool
	stopped   atomic.Bool
	skipped   atomic.Uint64
	errMu     sync.Mutex
	runErr    error // first failure of the current run (guarded by errMu)

	// probe, when non-nil, records cycles/sec, per-partition compute vs.
	// barrier-wait time and shard sync round-trips. The nil case costs
	// one predictable branch per phase and zero allocations (guarded by
	// TestEngineHotPathAllocFree).
	probe *obs.SimProbe

	// barrier is the current run's, met once per synchronization chunk.
	barrier *Barrier

	// claims holds one claim word per worker span while workers steal
	// (sync period 1, two or more workers); see spanClaims.
	claims []spanClaims

	// sampler, when non-nil, is invoked by the barrier leader every
	// sampleEvery cycles (and at the final sync point of each run) while
	// all workers are parked — the one point where tile state is
	// quiescent and plain counter reads are race-free. Like the probe,
	// the nil case is a single predictable branch per sync point.
	sampler     Sampler
	sampleEvery uint64
	sampleNext  uint64
}

// Sampler receives simulated-machine samples at engine sync points.
type Sampler interface {
	// Sample reports that the machine has coherently reached cycle
	// (exclusive: cycles [0,cycle) are complete) with runSkipped cycles
	// fast-forwarded so far in the current run. It executes on the
	// barrier leader with every worker parked, so implementations may
	// read tile state directly, but must return quickly — the whole
	// engine is stalled meanwhile.
	Sample(cycle, runSkipped uint64)
}

// SetProbe attaches (or, with nil, detaches) an engine probe. Call
// between runs, not while one is in flight.
func (e *Engine) SetProbe(p *obs.SimProbe) { e.probe = p }

// SetSampler attaches (or, with nil, detaches) a sync-point sampler
// firing every `every` cycles (absolute cadence: samples land on
// multiples of every, so chunked runs keep a stable rhythm). Call
// between runs, not while one is in flight.
func (e *Engine) SetSampler(s Sampler, every uint64) {
	if every < 1 {
		every = 1
	}
	e.sampler = s
	e.sampleEvery = every
	e.sampleNext = 0
}

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
		lo:          0,
		hi:          len(tiles),
	}
}

// SetShard restricts the engine to the tile span owned by shard index out
// of count (the same contiguous equal-division used for workers) and
// installs the coupler consulted at every synchronization point plus the
// shard's local completion predicate (may be nil). Sharding requires
// cycle-accurate synchronization: boundary state is exchanged at sync
// points, so coarser periods would let stale remote flits leak.
func (e *Engine) SetShard(index, count int, coupler ShardCoupler, done func() bool) error {
	if coupler == nil {
		return fmt.Errorf("sim: sharded engine needs a coupler")
	}
	if e.syncPeriod != 1 {
		return fmt.Errorf("sim: sharding requires sync period 1, have %d", e.syncPeriod)
	}
	lo, hi := ShardSpan(len(e.tiles), count, index)
	e.lo, e.hi = lo, hi
	e.coupler = coupler
	e.done = done
	if e.workers > hi-lo {
		e.workers = hi - lo
	}
	return nil
}

// Span returns the tile span [lo,hi) this engine steps. A zero-value
// span (an engine built without NewEngine) means every tile.
func (e *Engine) Span() (lo, hi int) {
	if e.hi == 0 {
		return 0, len(e.tiles)
	}
	return e.lo, e.hi
}

// InFlight exposes the global in-network flit counter that tiles maintain.
func (e *Engine) InFlight() *atomic.Int64 { return e.inflight }

// Workers returns the effective worker count.
func (e *Engine) Workers() int { return e.workers }

// partition returns the contiguous tile span [lo,hi) owned by worker w
// within the engine's own span. Contiguous blocks keep neighbouring mesh
// tiles on the same worker, which is what HORNET's equal-division mapping
// does. At sync period 1 the span is only where the worker starts: a
// worker that finishes its span takes chunks off the tail of another's
// (spanClaims), so a tile is stepped by one worker at a time, handed over
// only at the barrier. Loosely synchronized workers keep their spans: one
// may be cycles ahead of another, so no chunk of a cycle is free for both.
func (e *Engine) partition(w int) (lo, hi int) {
	slo, shi := e.Span()
	lo, hi = ShardSpan(shi-slo, e.workers, w)
	return slo + lo, slo + hi
}

// Run simulates the half-open cycle window [start, start+cycleCount):
// the second argument is a cycle COUNT, never an absolute end cycle —
// Run(100, 50) advances the clock from 100 to at most 150. If stop is
// non-nil it is evaluated exactly once at every synchronization point (by
// the barrier leader, so it needs no internal locking) — including the
// final one — and ends the run early when it returns true. The stop check
// happens before fast-forward target election, so a stopping run never
// jumps past its stop point. Run returns once all workers have finished.
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
	apply := func(dec ShardDecision) {
		if dec.Skipped != 0 {
			e.skipped.Add(dec.Skipped)
		}
		if dec.Stopped {
			e.stopped.Store(true)
		}
		if dec.Halt {
			e.halted.Store(true)
		}
		e.nextCycle.Store(dec.Next)
	}

	// Join synchronization: the engine announces the chunk it is about to
	// run; a shard group aligns on it (all shards must agree on start and
	// end), and a resumed fast-forwarding run may jump past idle leading
	// cycles before anything executes — from the cycle just before this
	// chunk, the skip the previous chunk's leader would have taken had the
	// run not been split here. A chunk skipped whole halts here: the workers
	// below start and return at once.
	vote := ShardVote{Join: true, Cycle: start, End: end, Inflight: e.inflight.Load(), Earliest: start}
	if resume && start > 0 && e.mayJump(vote.Inflight) {
		vote.Earliest = e.earliestEvent(start - 1)
	}
	dec, err := e.decide(vote)
	if err != nil {
		return RunResult{Wall: time.Since(began), Workers: e.workers, Err: err}
	}
	apply(dec)
	start = dec.Next

	e.barrier = NewBarrier(e.workers)

	// Align the sampling cadence to absolute multiples of sampleEvery
	// strictly past this chunk's start, so restored/chunked runs sample
	// at the same cycles the uninterrupted run would have.
	if e.sampler != nil {
		for e.sampleNext <= start {
			e.sampleNext += e.sampleEvery
		}
	}

	// sample runs on the barrier leader after the sync decision: at the
	// cadence, and unconditionally at the final sync point of the run so
	// the last sample agrees with the run's end state. Fast-forward
	// jumps that clear one or more sample points collapse into a single
	// sample at the landing cycle.
	sample := func(cycleJustFinished uint64) {
		if e.sampler == nil {
			return
		}
		if cycleJustFinished+1 >= e.sampleNext || e.halted.Load() {
			e.sampler.Sample(cycleJustFinished+1, e.skipped.Load())
			for e.sampleNext <= cycleJustFinished+1 {
				e.sampleNext += e.sampleEvery
			}
		}
	}

	// The stop predicate is consulted exactly once per synchronization
	// point, even when the run is about to end, and the decision honours it
	// before any fast-forward accounting — so a stop request can never be
	// outrun by a jump and the serve layer's final-cycle side effects always
	// fire.
	leader := func(cycleJustFinished uint64) {
		vote := ShardVote{
			Cycle:    cycleJustFinished,
			End:      end,
			Inflight: e.inflight.Load(),
			Earliest: cycleJustFinished + 1,
			Stop:     stop != nil && stop(cycleJustFinished),
			Done:     e.done != nil && e.done(),
		}
		if e.mayJump(vote.Inflight) {
			vote.Earliest = e.earliestEvent(cycleJustFinished)
		}
		dec, err := e.decide(vote)
		if err != nil {
			e.fail(err)
			return
		}
		apply(dec)
		sample(cycleJustFinished)
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
				part = e.probe.Partition(w, e.workers, lo, hi)
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

// decide takes one synchronization-point decision. A sharded engine asks
// its group through the coupler; an uncoupled engine is a group of one and
// applies the same rule to its own vote.
func (e *Engine) decide(vote ShardVote) (ShardDecision, error) {
	if e.coupler == nil {
		return DecideShardSync([]ShardVote{vote})
	}
	var syncStart time.Time
	if e.probe != nil {
		syncStart = time.Now()
	}
	dec, err := e.coupler.Sync(vote)
	if e.probe != nil {
		e.probe.ShardSync(time.Since(syncStart))
	}
	return dec, err
}

// mayJump reports whether a vote's Earliest is worth scanning the tiles
// for: only a fast-forwarding engine jumps, and an uncoupled one knows it
// cannot while flits are in flight (a shard's own count says nothing; only
// the group's sum does).
func (e *Engine) mayJump(inflight int64) bool {
	return e.fastForward && (e.coupler != nil || inflight == 0)
}

// earliestEvent scans the engine's tile span for the soonest
// self-initiated activity. Called only by the barrier leader while all
// workers are blocked, so the tiles are quiescent and safe to query.
func (e *Engine) earliestEvent(now uint64) uint64 {
	earliest := uint64(NoEvent)
	lo, hi := e.Span()
	for _, t := range e.tiles[lo:hi] {
		if ev := t.NextEvent(now); ev < earliest {
			earliest = ev
		}
	}
	return earliest
}
