package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/sim"
)

// skewedTile holds back a tile's positive edge of every cycle until the
// tile lead, on another engine worker, has finished its negative edge of
// that cycle: the order one barrier per cycle allows and two forbade.
type skewedTile struct {
	sim.Tile
	lead   *atomic.Uint64 // cycles the lead tile has committed
	forced *atomic.Uint64 // cycles this tile was held back for
	late   bool           // this tile waits for the lead
	isLead bool           // this tile is the lead
}

func (s *skewedTile) PhaseTransfer(cycle uint64) {
	if s.late {
		for deadline := time.Now().Add(5 * time.Second); s.lead.Load() <= cycle; {
			if time.Now().After(deadline) {
				s.late = false // the lead cannot get ahead; the test reports it
				break
			}
			runtime.Gosched()
		}
		if s.late {
			s.forced.Add(1)
		}
	}
	s.Tile.PhaseTransfer(cycle)
}

func (s *skewedTile) PhaseCommit(cycle uint64) {
	s.Tile.PhaseCommit(cycle)
	if s.isLead {
		s.lead.Store(cycle + 1)
	}
}

// TestSkewedWorkersMatchOneWorker runs a busy 4x4 mesh, with fixed and with
// bandwidth-adaptive links, on 2 to 4 engine workers whose first partition
// starts every cycle only after the last partition has committed it — so a
// neighbour's credits, link reports and flits of the cycle are all written
// before the first partition reads anything — and requires the one-worker
// digest.
func TestSkewedWorkersMatchOneWorker(t *testing.T) {
	const cycles = 1500
	for _, bidir := range []bool{false, true} {
		cfg := config.Default()
		cfg.Topology.Width, cfg.Topology.Height = 4, 4
		cfg.Power.EpochCycles = 500
		cfg.Router.Bidirectional = bidir
		cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.25}}
		build := func(workers int) *System {
			cfg.Engine.Workers = workers
			sys, err := New(cfg)
			if err == nil {
				err = sys.AttachSyntheticTraffic()
			}
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		one := build(1)
		if res := one.Run(cycles); res.Err != nil {
			t.Fatal(res.Err)
		}
		want := systemDigest(t, one, 1)
		for workers := 2; workers <= 4; workers++ {
			t.Run(fmt.Sprintf("bidirectional=%v/workers%d", bidir, workers), func(t *testing.T) {
				sys := build(workers)
				var lead, forced atomic.Uint64
				tiles := make([]sim.Tile, len(sys.tiles))
				lastLo, _ := sim.ShardSpan(len(tiles), workers, workers-1)
				for i, tl := range sys.tiles {
					tiles[i] = &skewedTile{Tile: tl, lead: &lead, forced: &forced, late: i == 0, isLead: i == lastLo}
				}
				sys.engine = sim.NewEngine(tiles, workers, 1, false, sys.engine.InFlight())
				if res := sys.Run(cycles); res.Err != nil || res.Cycles != cycles {
					t.Fatalf("run: %+v", res)
				}
				if forced.Load() != cycles {
					t.Fatalf("the first partition started %d of %d cycles after the last one committed them", forced.Load(), cycles)
				}
				if got := systemDigest(t, sys, workers); got != want {
					t.Errorf("digest %s, one worker %s", got, want)
				}
			})
		}
	}
}
