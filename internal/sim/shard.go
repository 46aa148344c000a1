package sim

import "fmt"

// Space-parallel sharding: one simulation partitioned across several
// engine instances (usually in separate processes), each stepping a
// contiguous tile span. At every synchronization point each shard emits
// a ShardVote — its local contribution to the global halt/fast-forward
// decision — and a coupler exchanges boundary state and votes with the
// rest of the group, returning the group's ShardDecision. The decision
// function is pure and shared (DecideShardSync): every shard folds the
// same votes in the same order, so all of them take the same decision.

// ShardVote is one shard's input to a synchronization-point decision.
// All cross-shard quantities are decomposable: in-flight flit counts sum
// (per-shard counters drift by boundary traffic, only the sum is
// meaningful), earliest self-events combine by minimum, stop requests
// combine by OR (any shard cancelling cancels the run) and completion
// votes combine by AND (the workload is done only when every span is).
type ShardVote struct {
	// Join marks the run-start synchronization: Cycle is the cycle the
	// shard is about to execute (nothing has run yet), and the decision
	// may fast-forward the whole group past it (resume pre-jump).
	Join bool
	// Cycle is the cycle just finished (or, for Join votes, the first
	// cycle of the run). All shards must agree.
	Cycle uint64
	// End is the run's exclusive cycle bound. All shards must agree.
	End uint64
	// Inflight is this shard's in-network flit counter: flits injected
	// in-span minus flits delivered in-span. Negative drift is normal.
	Inflight int64
	// Earliest is the earliest cycle strictly after Cycle at which an
	// in-span tile could self-initiate activity, NoEvent if never, or
	// Cycle+1 when the shard does not fast-forward.
	Earliest uint64
	// Stop reports this shard's stop predicate (cancellation).
	Stop bool
	// Done reports this shard's completion predicate (e.g. every in-span
	// core halted and drained). False when the run has no such predicate.
	Done bool
}

// ShardDecision is the group outcome of one synchronization point,
// identical on every shard.
type ShardDecision struct {
	// Next is the next cycle every shard executes (or End).
	Next uint64
	// Skipped is the number of cycles the group fast-forwarded over at
	// this synchronization point; every shard accounts the same value.
	Skipped uint64
	// Halt ends the run after this synchronization point.
	Halt bool
	// Stopped records that the run ended by stop/completion rather than
	// by reaching End.
	Stopped bool
}

// ShardCoupler connects an engine to its shard group: called by the
// barrier leader at every synchronization point (all local workers are
// blocked, the span is quiescent), it exchanges boundary state plus the
// vote with the other shards and returns the group decision. An error
// aborts the run (RunResult.Err); a *ShardRestartError lets the driver
// roll the whole group back to a coordinated checkpoint.
type ShardCoupler interface {
	Sync(vote ShardVote) (ShardDecision, error)
}

// ShardRestartError is the group's rollback notice: a member was lost,
// so every member abandons its state, restores Blob — its own checkpoint
// of the group's stable cycle Cycle; nil means rebuild from cycle 0 —
// and rejoins under Epoch. The JSON form is the notice on the wire.
type ShardRestartError struct {
	Epoch int    `json:"epoch"`
	Cycle uint64 `json:"cycle"`
	Blob  []byte `json:"blob,omitempty"`
}

func (e *ShardRestartError) Error() string {
	return fmt.Sprintf("sim: shard group restarted (epoch %d, checkpoint cycle %d)", e.Epoch, e.Cycle)
}

// ShardSpan returns the contiguous tile span [lo,hi) owned by shard
// index among count shards over n tiles — the same equal-division
// mapping the engine uses for workers, so a sharded run partitions
// exactly like a single-process multi-worker run.
func ShardSpan(n, count, index int) (lo, hi int) {
	if count < 1 || index < 0 || index >= count || count > n {
		panic(fmt.Sprintf("sim: bad shard span n=%d count=%d index=%d", n, count, index))
	}
	base, rem := n/count, n%count
	lo = index*base + min(index, rem)
	hi = lo + base
	if index < rem {
		hi++
	}
	return lo, hi
}

// DecideShardSync folds one synchronization point's votes into the
// group decision. It is the engine's only rule — an uncoupled engine
// decides over its own single vote: the stop predicate is evaluated
// before fast-forward accounting (a stopping run must not jump past its
// stop point), completion requires every span done plus a globally
// drained network, and fast-forward jumps are clamped to End.
func DecideShardSync(votes []ShardVote) (ShardDecision, error) {
	if len(votes) == 0 {
		return ShardDecision{}, fmt.Errorf("sim: shard sync with no votes")
	}
	v0 := votes[0]
	var inflight int64
	earliest := uint64(NoEvent)
	stop, done := false, true
	for i, v := range votes {
		if v.Cycle != v0.Cycle || v.End != v0.End || v.Join != v0.Join {
			return ShardDecision{}, fmt.Errorf(
				"sim: shard vote %d disagrees with vote 0 (cycle %d/%d end %d/%d join %v/%v)",
				i, v.Cycle, v0.Cycle, v.End, v0.End, v.Join, v0.Join)
		}
		inflight += v.Inflight
		if v.Earliest < earliest {
			earliest = v.Earliest
		}
		stop = stop || v.Stop
		done = done && v.Done
	}
	if v0.Join {
		// Run-start alignment: possibly pre-jump the whole group past
		// idle leading cycles (resumed runs), never evaluate stop.
		next := v0.Cycle
		var skipped uint64
		if inflight == 0 && earliest > next {
			t := earliest
			if t > v0.End {
				t = v0.End
			}
			skipped = t - next
			next = t
		}
		return ShardDecision{Next: next, Skipped: skipped, Halt: next >= v0.End}, nil
	}
	stopped := stop || (done && inflight == 0)
	next := v0.Cycle + 1
	var skipped uint64
	if !stopped && inflight == 0 {
		if earliest > next && earliest != NoEvent {
			t := earliest
			if t > v0.End {
				t = v0.End
			}
			skipped = t - next
			next = t
		} else if earliest == NoEvent {
			skipped = v0.End - next
			next = v0.End
		}
	}
	return ShardDecision{
		Next:    next,
		Skipped: skipped,
		Halt:    next >= v0.End || stopped,
		Stopped: stopped,
	}, nil
}
