package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stealTile checks that the engine steps it transfer-then-commit exactly
// once per cycle, in cycle order, whichever worker runs it. Its counters
// are plain words: a tile handed from one worker to another is handed over
// at the barrier, so the race detector sees every access ordered.
type stealTile struct {
	transfers, commits uint64
	fail               func(format string, args ...any)

	// The first tile of span 0 holds back its positive edge of every cycle
	// until the last tile of span 0 has committed that cycle (lastDone).
	first    bool
	last     bool
	lastDone *atomic.Uint64 // cycles span 0's last tile has committed
	forced   *atomic.Uint64 // cycles the first tile was held back for
	gaveUp   *atomic.Bool   // the last tile never came: stop waiting
}

func (s *stealTile) PhaseTransfer(cycle uint64) {
	if s.transfers != cycle || s.commits != cycle {
		s.fail("transfer of cycle %d after %d transfers and %d commits", cycle, s.transfers, s.commits)
	}
	s.transfers++
	if !s.first || s.gaveUp.Load() {
		return
	}
	for deadline := time.Now().Add(5 * time.Second); s.lastDone.Load() <= cycle; runtime.Gosched() {
		if time.Now().After(deadline) {
			s.fail("cycle %d: span 0's last chunk was not stepped while its first tile waited: nobody took it over", cycle)
			s.gaveUp.Store(true)
			return
		}
	}
	s.forced.Add(1)
}

func (s *stealTile) PhaseCommit(cycle uint64) {
	if s.transfers != cycle+1 || s.commits != cycle {
		s.fail("commit of cycle %d after %d transfers and %d commits", cycle, s.transfers, s.commits)
	}
	s.commits++
	if s.last {
		s.lastDone.Store(cycle + 1)
	}
}

func (s *stealTile) NextEvent(now uint64) uint64 { return now + 1 }

// TestEngineStealsSlowSpan: at sync period 1 a worker whose span is done
// takes chunks off the back of a span whose worker is still busy. Span 0's
// first tile waits, every cycle, until span 0's last chunk has been stepped
// in that cycle — which only a thief can do while span 0's own worker is
// inside the wait — and every tile must still see transfer then commit
// exactly once per cycle, in cycle order.
func TestEngineStealsSlowSpan(t *testing.T) {
	const cycles = 300
	for workers := 2; workers <= 4; workers++ {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var (
				mu       sync.Mutex
				problems []string
				lastDone atomic.Uint64
				forced   atomic.Uint64
				gaveUp   atomic.Bool
			)
			fail := func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				if len(problems) < 10 {
					problems = append(problems, fmt.Sprintf(format, args...))
				}
			}
			// Three chunks per span, the last one short.
			perSpan := 2*chunkTiles + 5
			tiles := make([]Tile, workers*perSpan)
			st := make([]*stealTile, len(tiles))
			for i := range tiles {
				st[i] = &stealTile{fail: fail, lastDone: &lastDone, forced: &forced, gaveUp: &gaveUp}
				tiles[i] = st[i]
			}
			eng := NewEngine(tiles, workers, 1, false, nil)
			lo, hi := eng.partition(0)
			if hi-lo <= chunkTiles {
				t.Fatalf("span 0 holds %d tiles, one chunk: nothing to steal from its back", hi-lo)
			}
			st[lo].first, st[hi-1].last = true, true

			res := eng.Run(0, cycles, nil)
			if res.Err != nil || res.Cycles != cycles {
				t.Fatalf("run: %+v", res)
			}
			for _, p := range problems {
				t.Error(p)
			}
			if n := forced.Load(); n != cycles {
				t.Errorf("span 0's last chunk finished before its first tile in %d of %d cycles", n, cycles)
			}
			for i, s := range st {
				if s.transfers != cycles || s.commits != cycles {
					t.Errorf("tile %d: %d transfers, %d commits, want %d each", i, s.transfers, s.commits, cycles)
				}
			}
		})
	}
}
