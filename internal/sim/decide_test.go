package sim

import "testing"

// TestShardSpanMatchesPartition: the engine's workers start from the
// equal division ShardSpan gives — contiguous spans that cover every tile
// once, in order, and differ in size by at most one tile — so a `shards: N`
// run partitions its tiles the same way on any host.
func TestShardSpanMatchesPartition(t *testing.T) {
	for tiles := 1; tiles <= 24; tiles++ {
		for count := 1; count <= tiles; count++ {
			e := &Engine{tiles: make([]Tile, tiles), workers: count}
			next := 0
			for idx := 0; idx < count; idx++ {
				wlo, whi := e.partition(idx)
				slo, shi := ShardSpan(tiles, count, idx)
				if slo != wlo || shi != whi {
					t.Fatalf("tiles=%d count=%d part %d: span [%d,%d) != worker span [%d,%d)",
						tiles, count, idx, slo, shi, wlo, whi)
				}
				if n := shi - slo; slo != next || n < tiles/count || n > (tiles+count-1)/count {
					t.Fatalf("tiles=%d count=%d part %d: span [%d,%d) is not the next equal part after %d",
						tiles, count, idx, slo, shi, next)
				}
				next = shi
			}
			if next != tiles {
				t.Fatalf("tiles=%d count=%d: the spans end at %d", tiles, count, next)
			}
		}
	}
}

// TestDecideSync: the barrier leader's decision — stop first, fast-forward
// only over a drained network to the earliest event clamped to the end
// bound, and at a join a resumed run's pre-jump without a stop check.
func TestDecideSync(t *testing.T) {
	for _, tc := range []struct {
		name string
		vote syncVote
		want syncDecision
	}{
		{"plain advance", syncVote{cycle: 5, end: 100, earliest: 6}, syncDecision{next: 6}},
		{"ff skip to earliest", syncVote{cycle: 5, end: 100, earliest: 40}, syncDecision{next: 40, skipped: 34}},
		{"ff clamped to end", syncVote{cycle: 5, end: 100, earliest: 400}, syncDecision{next: 100, skipped: 94, halt: true}},
		{"all idle forever", syncVote{cycle: 5, end: 100, earliest: NoEvent}, syncDecision{next: 100, skipped: 94, halt: true}},
		{"in-flight flits veto a skip", syncVote{cycle: 5, end: 100, earliest: 70, inflight: 4}, syncDecision{next: 6}},
		{"stop wins over fast-forward", syncVote{cycle: 5, end: 100, earliest: NoEvent, stop: true}, syncDecision{next: 6, halt: true, stopped: true}},
		{"final cycle halts", syncVote{cycle: 99, end: 100, earliest: 100}, syncDecision{next: 100, halt: true}},
		{"join aligns without stop evaluation", syncVote{join: true, cycle: 10, end: 100, earliest: 10, stop: true}, syncDecision{next: 10}},
		{"join pre-jumps a resumed idle run", syncVote{join: true, cycle: 10, end: 100, earliest: 50}, syncDecision{next: 50, skipped: 40}},
		{"join pre-jump clamps to end", syncVote{join: true, cycle: 10, end: 100, earliest: NoEvent}, syncDecision{next: 100, skipped: 90, halt: true}},
	} {
		if got := decideSync(tc.vote); got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
