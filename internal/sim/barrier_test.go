package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// busyFor burns CPU for d, the way a worker that is still computing does
// (time.Sleep would free the CPU and overshoots by a timer tick).
func busyFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestBarrierStragglerParks: a party whose partner arrives 20 ms late must
// stop polling once it has waited parkCost and sleep through the rest of
// the imbalance — CPU is not burned for the length of an imbalance.
func TestBarrierStragglerParks(t *testing.T) {
	const late = 20 * time.Millisecond
	b := NewBarrier(2)
	defer b.Break() // frees the waiter if the test gives up early
	start := time.Now()
	parked := make(chan bool, 1)
	go func() {
		_, p := b.Await(nil)
		parked <- p
	}()
	// sleepers becomes 1 when the waiter gives up polling. This goroutine
	// sleeps between looks so the waiter has a CPU even on a loaded host;
	// the limit leaves room for the host to deschedule it and is still
	// half the imbalance.
	const limit = late / 2
	for b.sleepers.Load() == 0 {
		if time.Since(start) > limit {
			t.Fatalf("waiter still polling after %v (bound %v)", limit, b.pollFor)
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(late - time.Since(start))
	if met, _ := b.Await(nil); !met {
		t.Fatal("barrier reported broken")
	}
	if !<-parked {
		t.Error("the waiter's await did not report that it parked")
	}
	if b.Parks() != 1 || b.Polled() != 0 {
		t.Errorf("parks = %d, polled = %d, want 1 and 0", b.Parks(), b.Polled())
	}
}

// TestBarrierBalancedWaitsPoll: two parties with a CPU each that arrive
// within ~10 µs of each other must resolve their waits by polling — the
// futex stays off the critical path of a balanced run. Whether the
// arrivals really are that close is up to the host (another test binary on
// the same CPUs, a throttled virtual machine pausing both for
// milliseconds), so every generation's arrivals are timed: a wait that
// parked although its partner arrived within the bound fails the test on
// any host; without one, more than 1 park in 10 waits can only mean that
// the host kept the parties apart for longer than the bound that often,
// and the test is skipped.
func TestBarrierBalancedWaitsPoll(t *testing.T) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a CPU per party")
	}
	const generations = 10000
	b := NewBarrier(2)
	// Per generation and party: when it reached the barrier, when it left,
	// and whether it parked in between. Each party writes its own column.
	var reached, left [generations][2]time.Duration
	var parked [generations][2]bool
	epoch := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				if g%2 == p {
					busyFor(10 * time.Microsecond)
				}
				reached[g][p] = time.Since(epoch)
				_, parked[g][p] = b.Await(nil)
				left[g][p] = time.Since(epoch)
			}
		}(p)
	}
	wg.Wait()
	if got := b.Parks() + b.Polled(); got != generations {
		t.Fatalf("parks + polled = %d, want one wait per generation (%d)", got, generations)
	}
	for g := range parked {
		for p, didPark := range parked[g] {
			// The partner left the barrier the moment it had released this
			// party, so the party had waited left[partner]-reached[p] at
			// most when it could have gone on.
			if waited := left[g][1-p] - reached[g][p]; didPark && waited < b.pollFor {
				t.Errorf("generation %d: party %d parked after at most %v, bound %v", g, p, waited, b.pollFor)
			}
		}
	}
	t.Logf("%d of %d waits parked", b.Parks(), generations)
	if b.Polled() < generations*9/10 && !t.Failed() {
		t.Skipf("the host kept the parties more than %v apart in %d of %d generations", b.pollFor, b.Parks(), generations)
	}
}

// TestBarrierBreakReleasesPollingAndParked: Break frees a party whichever
// phase of its wait it is in, and every later Await reports false.
func TestBarrierBreakReleasesPollingAndParked(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pollFor time.Duration
		parks   uint64
	}{
		{"polling", time.Hour, 0},
		{"parked", 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBarrier(3)
			b.pollFor = tc.pollFor
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if met, _ := b.Await(func() { t.Error("action ran on a broken barrier") }); met {
						t.Error("Await reported a meeting on a broken barrier")
					}
				}()
			}
			// Both waiters have arrived and, on the park path, are asleep
			// (or about to check the flag under the mutex).
			for b.arrived.Load() != 2 || b.sleepers.Load() != int32(tc.parks) {
				runtime.Gosched()
			}
			b.Break() // the third party never arrives
			wg.Wait()
			if got := b.Parks(); got != tc.parks {
				t.Errorf("parks = %d, want %d", got, tc.parks)
			}
			if met, _ := b.Await(nil); met {
				t.Error("Await after Break reported a meeting")
			}
		})
	}
}

// TestBarrierOversubscribedNeverPolls: with fewer CPUs than parties the
// party being polled for could not run, so every wait parks at once.
func TestBarrierOversubscribedNeverPolls(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const parties, generations = 4, 500
	b := NewBarrier(parties)
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				b.Await(nil)
			}
		}()
	}
	wg.Wait()
	if b.Polled() != 0 || b.Parks() != (parties-1)*generations {
		t.Errorf("polled = %d, parks = %d, want 0 and %d", b.Polled(), b.Parks(), (parties-1)*generations)
	}
}

// BenchmarkBarrier measures one barrier generation (ns/op) and how many of
// its waits parked (parks/op): every party arriving together, and one
// party 50 µs late every generation. With more parties than CPUs every
// wait parks. The forced-park case is the measurement behind parkCost: one
// party is late by half a phase of the 1000-core workload, long enough for
// the parked party's thread to be asleep, and wake-ns is the time from the
// late party's arrival to the parked party running again (median, and
// wake-p90-ns).
func BenchmarkBarrier(b *testing.B) {
	for _, parties := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parties-%d/balanced", parties), func(b *testing.B) {
			benchBarrier(b, NewBarrier(parties), 0)
		})
		b.Run(fmt.Sprintf("parties-%d/late-50us", parties), func(b *testing.B) {
			benchBarrier(b, NewBarrier(parties), 50*time.Microsecond)
		})
	}
	b.Run("parties-2/late-200us-forced-park", func(b *testing.B) {
		bar := NewBarrier(2)
		bar.pollFor = 0
		benchBarrier(b, bar, 200*time.Microsecond)
	})
}

func benchBarrier(b *testing.B, bar *Barrier, late time.Duration) {
	// released[g] is when the late party arrived at generation g, woke[g]
	// when party 1 ran again, on the same monotonic clock; recorded only
	// where every wait parks.
	var released, woke []time.Duration
	if bar.pollFor == 0 && bar.Parties() > 1 {
		released = make([]time.Duration, b.N)
		woke = make([]time.Duration, b.N)
	}
	epoch := time.Now()
	var wg sync.WaitGroup
	b.ResetTimer()
	for p := 0; p < bar.Parties(); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for g := 0; g < b.N; g++ {
				if p == 0 && late > 0 {
					busyFor(late)
				}
				if p == 0 && released != nil {
					released[g] = time.Since(epoch)
				}
				bar.Await(nil)
				if p == 1 && woke != nil {
					woke[g] = time.Since(epoch)
				}
			}
		}(p)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(bar.Parks())/float64(b.N), "parks/op")
	if woke != nil {
		lat := make([]float64, b.N)
		for g := range lat {
			lat[g] = float64(woke[g] - released[g])
		}
		sort.Float64s(lat)
		b.ReportMetric(lat[len(lat)/2], "wake-ns")
		b.ReportMetric(lat[len(lat)*9/10], "wake-p90-ns")
	}
}
