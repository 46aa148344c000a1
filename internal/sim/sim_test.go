package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a.Reseed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRNGIntnSmallNStreamIdentity pins Intn's definition — the next 64
// bits modulo n — across its constant-modulus cases and the generic path:
// a twin generator's Uint64()%n must agree draw for draw, and the two
// states must stay equal, or every router's permutation stream (and with it
// every golden digest) would shift.
func TestRNGIntnSmallNStreamIdentity(t *testing.T) {
	r, twin := NewRNG(0xC0FFEE), NewRNG(0xC0FFEE)
	for i := 0; i < 1_000_000; i++ {
		n := i%32 + 1
		got, want := r.Intn(n), int(twin.Uint64()%uint64(n))
		if got != want || r.State() != twin.State() {
			t.Fatalf("draw %d: Intn(%d) = %d, twin says %d (states %#x, %#x)", i, n, got, want, r.State(), twin.State())
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(1)
	hits := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.28 || rate > 0.32 {
		t.Fatalf("Bernoulli(0.3) hit rate %.4f", rate)
	}
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
}

func TestRNGPickRespectsWeights(t *testing.T) {
	r := NewRNG(5)
	counts := [3]int{}
	w := []float64{1, 0, 3}
	for i := 0; i < 40_000; i++ {
		counts[r.Pick(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight option picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio %.2f, want ~3", ratio)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := make([]int, n)
		r.Perm(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRNGSkipMatchesDraws pins the contract an idle router relies on when it
// skips its egress permutation: Skip(n) is n discarded draws, a Perm over k
// entries is exactly k-1 draws, and a skipped position survives a
// checkpoint.
func TestRNGSkipMatchesDraws(t *testing.T) {
	for n := 0; n <= 64; n++ {
		skipped, drawn := NewRNG(uint64(n)+7), NewRNG(uint64(n)+7)
		skipped.Skip(n)
		for i := 0; i < n; i++ {
			drawn.Uint64()
		}
		if skipped.State() != drawn.State() {
			t.Fatalf("Skip(%d) left state %#x, %d draws leave %#x", n, skipped.State(), n, drawn.State())
		}
		if a, b := skipped.Uint64(), drawn.Uint64(); a != b {
			t.Fatalf("after Skip(%d) the next draw is %#x, after %d draws it is %#x", n, a, n, b)
		}
	}
	for k := 0; k <= 16; k++ {
		permuted, skipped := NewRNG(99), NewRNG(99)
		permuted.Perm(make([]int, k))
		skipped.Skip(k - 1)
		if permuted.State() != skipped.State() {
			t.Fatalf("Perm over %d entries left state %#x, Skip(%d) leaves %#x", k, permuted.State(), k-1, skipped.State())
		}
	}
	whole, resumed := NewRNG(5), NewRNG(5)
	whole.Skip(9)
	resumed.Skip(4)
	restored := NewRNG(1)
	restored.SetState(resumed.State())
	restored.Skip(5)
	if whole.State() != restored.State() || whole.Intn(1000) != restored.Intn(1000) {
		t.Fatal("a Skip split across State/SetState does not land where the unsplit one does")
	}
	before := whole.State()
	whole.Skip(0)
	whole.Skip(-3)
	if whole.State() != before {
		t.Fatal("Skip of a non-positive count moved the stream")
	}
}

func TestBarrierAllArrive(t *testing.T) {
	const parties = 8
	const rounds = 200
	b := NewBarrier(parties)
	var counter atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				counter.Add(1)
				b.Await(nil)
				// Everyone must observe the full round's increments.
				if c := counter.Load(); c < int64((r+1)*parties) {
					t.Errorf("round %d: counter %d < %d", r, c, (r+1)*parties)
					return
				}
				b.Await(nil)
			}
		}()
	}
	wg.Wait()
	if counter.Load() != parties*rounds {
		t.Fatalf("counter = %d, want %d", counter.Load(), parties*rounds)
	}
}

func TestBarrierLeaderActionOncePerGeneration(t *testing.T) {
	const parties = 4
	const rounds = 100
	b := NewBarrier(parties)
	var actions atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b.Await(func() { actions.Add(1) })
			}
		}()
	}
	wg.Wait()
	if actions.Load() != rounds {
		t.Fatalf("leader action ran %d times, want %d", actions.Load(), rounds)
	}
}

// countTile counts phase calls and exposes a scripted next event.
type countTile struct {
	transfers []uint64
	commits   []uint64
	next      uint64
}

func (c *countTile) PhaseTransfer(cycle uint64) { c.transfers = append(c.transfers, cycle) }
func (c *countTile) PhaseCommit(cycle uint64)   { c.commits = append(c.commits, cycle) }
func (c *countTile) NextEvent(now uint64) uint64 {
	if c.next == 0 {
		return NoEvent
	}
	if c.next <= now {
		return now + 1
	}
	return c.next
}

func TestEnginePhasesOrderedPerCycle(t *testing.T) {
	tiles := []Tile{&countTile{}, &countTile{}, &countTile{}}
	e := NewEngine(tiles, 2, 1, false, nil)
	res := e.Run(0, 10, nil)
	if res.Cycles != 10 {
		t.Fatalf("ran %d cycles, want 10", res.Cycles)
	}
	for i, tl := range tiles {
		ct := tl.(*countTile)
		if len(ct.transfers) != 10 || len(ct.commits) != 10 {
			t.Fatalf("tile %d: %d transfers, %d commits", i, len(ct.transfers), len(ct.commits))
		}
		for c := uint64(0); c < 10; c++ {
			if ct.transfers[c] != c || ct.commits[c] != c {
				t.Fatalf("tile %d cycle %d: got transfer %d commit %d", i, c, ct.transfers[c], ct.commits[c])
			}
		}
	}
}

func TestEngineLooseSyncRunsAllCycles(t *testing.T) {
	tiles := []Tile{&countTile{}, &countTile{}}
	e := NewEngine(tiles, 2, 7, false, nil)
	res := e.Run(0, 100, nil)
	if res.Cycles != 100 {
		t.Fatalf("ran %d cycles, want 100", res.Cycles)
	}
	for _, tl := range tiles {
		if n := len(tl.(*countTile).transfers); n != 100 {
			t.Fatalf("tile ran %d transfers, want 100", n)
		}
	}
}

func TestEngineFastForwardSkipsIdle(t *testing.T) {
	tiles := []Tile{&countTile{next: 500}, &countTile{}}
	e := NewEngine(tiles, 1, 1, true, nil)
	res := e.Run(0, 1000, nil)
	if res.SkippedCycles == 0 {
		t.Fatal("fast-forward skipped nothing")
	}
	if res.Cycles+res.SkippedCycles != 1000 {
		t.Fatalf("cycles %d + skipped %d != 1000", res.Cycles, res.SkippedCycles)
	}
	// The event cycle itself must have been executed, not skipped.
	found := false
	for _, c := range tiles[0].(*countTile).transfers {
		if c == 500 {
			found = true
		}
	}
	if !found {
		t.Fatal("fast-forward skipped over the scheduled event cycle")
	}
}

func TestEngineStopFunction(t *testing.T) {
	tiles := []Tile{&countTile{}}
	e := NewEngine(tiles, 1, 1, false, nil)
	res := e.Run(0, 1000, func(cycle uint64) bool { return cycle >= 99 })
	if res.Cycles != 100 {
		t.Fatalf("stop at cycle 99 ran %d cycles, want 100", res.Cycles)
	}
}

// Regression: Run's second argument is a cycle COUNT, never an absolute
// end cycle. Run(100, 50) must execute the half-open window [100, 150) —
// it must not read 50 as "end at cycle 50" and run nothing (or, worse,
// wrap). Callers that start mid-simulation (checkpoint resume, chunked
// autosave) depend on this.
func TestEngineRunSecondArgIsCycleCount(t *testing.T) {
	tiles := []Tile{&countTile{}, &countTile{}}
	e := NewEngine(tiles, 2, 1, false, nil)
	res := e.Run(100, 50, nil)
	if res.Cycles != 50 {
		t.Fatalf("Run(100, 50) executed %d cycles, want 50 (count, not end cycle)", res.Cycles)
	}
	for i, tl := range tiles {
		ct := tl.(*countTile)
		if len(ct.transfers) != 50 {
			t.Fatalf("tile %d saw %d cycles, want 50", i, len(ct.transfers))
		}
		if first, last := ct.transfers[0], ct.transfers[49]; first != 100 || last != 149 {
			t.Fatalf("tile %d ran window [%d, %d], want [100, 149]", i, first, last)
		}
	}

	// The stop predicate observes clock values from the same window: a
	// caller stopping "50 cycles from now" sees start+k, not k.
	var seen []uint64
	e2 := NewEngine([]Tile{&countTile{}}, 1, 1, false, nil)
	e2.Run(1000, 5, func(cycle uint64) bool {
		seen = append(seen, cycle)
		return false
	})
	if len(seen) == 0 {
		t.Fatal("stop predicate never evaluated")
	}
	for _, c := range seen {
		if c < 1000 || c > 1005 {
			t.Fatalf("stop predicate saw cycle %d, outside window [1000, 1005]", c)
		}
	}
}

func TestEnginePartitionCoversAllTiles(t *testing.T) {
	for tiles := 1; tiles <= 20; tiles++ {
		for workers := 1; workers <= tiles; workers++ {
			e := &Engine{tiles: make([]Tile, tiles), workers: workers}
			covered := make([]int, tiles)
			for w := 0; w < workers; w++ {
				lo, hi := e.partition(w)
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("tiles=%d workers=%d: tile %d covered %d times", tiles, workers, i, c)
				}
			}
		}
	}
}
