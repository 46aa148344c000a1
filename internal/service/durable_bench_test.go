package service_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/service"
	"hornet/internal/service/client"
)

// serveMix is BenchmarkDurableServeMix's daemon, started on the
// benchmark's first call and closed by TestMain after every benchmark: the
// testing package calls a benchmark at b.N=1 before the call it times, and
// a daemon per call would count its start-up twice in the profiles. Kept
// until then, it is what profile-serve's inuse_space top reads — jobs,
// results, journal state — when the test binary writes its heap profile.
var serveMix struct {
	dir   string
	srv   *service.Server
	ts    *httptest.Server
	seeds atomic.Int64 // the last seed a new job used
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serveMix.srv != nil {
		serveMix.ts.Close()
		serveMix.srv.Close()
		os.RemoveAll(serveMix.dir)
	}
	os.Exit(code)
}

// BenchmarkDurableServeMix is the serve-mix daemon in process, where the
// profilers can reach it (make profile-serve): a durable daemon with a
// journal and a checkpoint directory, Budget 2, autosave every 1500
// cycles, behind HTTP. Two closed-loop clients each alternate a new 4x4
// uniform job (1000 warm-up + 2000 cycles, a seed no other job uses) with
// a resubmission of one of their earlier jobs, which the result cache
// serves. One iteration is one job, submitted, awaited and fetched. Jobs
// are retained, and the daemon and its journal persist across the
// benchmark's calls, so the journal's live set grows with every job the
// process has run; the reported compactions and records rewritten are this
// call's, and show how compaction work scales with that live set.
func BenchmarkDurableServeMix(b *testing.B) {
	const (
		clients       = 2
		warm, cycles  = 1000, 2000
		tilesPerJob   = 4 * 4
		injectionRate = 0.05
	)
	if serveMix.srv == nil {
		dir, err := os.MkdirTemp("", "serve-mix-bench")
		if err != nil {
			b.Fatal(err)
		}
		srv, err := service.NewDurable(service.Options{
			Budget:          2,
			JournalDir:      filepath.Join(dir, "journal"),
			CheckpointDir:   filepath.Join(dir, "checkpoints"),
			CheckpointEvery: 1500,
		})
		if err != nil {
			os.RemoveAll(dir)
			b.Fatal(err)
		}
		serveMix.dir, serveMix.srv, serveMix.ts = dir, srv, httptest.NewServer(srv)
	}
	srv, ts, seeds := serveMix.srv, serveMix.ts, &serveMix.seeds
	newJob := func(seed uint64) service.SubmitRequest {
		cfg := config.Default()
		cfg.Topology.Width, cfg.Topology.Height = 4, 4
		cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: injectionRate}}
		cfg.WarmupCycles, cfg.AnalyzedCycles = warm, cycles
		return service.SubmitRequest{Name: "serve-mix", Config: &cfg, Seed: seed}
	}

	compactions0 := srv.Stats().Journal.Compactions
	_, rewritten0 := srv.JournalCompacted()
	var claimed, cold atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			api := client.New(ts.URL)
			pick := rand.New(rand.NewPCG(uint64(c), 1))
			var mine []service.SubmitRequest
			for n := 0; claimed.Add(1) <= int64(b.N); n++ {
				hit := n%2 == 1
				var req service.SubmitRequest
				if hit {
					req = mine[pick.IntN(len(mine))]
				} else {
					req = newJob(uint64(seeds.Add(1)))
					mine = append(mine, req)
				}
				ctx := context.Background()
				info, err := api.SubmitAndWait(ctx, req)
				if err == nil && (info.State != service.StateDone || info.CacheHit != hit) {
					err = fmt.Errorf("job %s: state %s, cache hit %v, want done, %v", info.ID, info.State, info.CacheHit, hit)
				}
				if err == nil {
					_, _, err = api.Result(ctx, info.ID)
				}
				if err != nil {
					errs <- err
					return
				}
				if !hit {
					cold.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	_, rewritten := srv.JournalCompacted()
	b.ReportMetric(float64(b.N)/wall, "jobs/s")
	b.ReportMetric(float64(cold.Load()*tilesPerJob*(warm+cycles))/wall, "tile-cycles/s")
	b.ReportMetric(float64(srv.Stats().Journal.Compactions-compactions0), "compactions")
	b.ReportMetric(float64(rewritten-rewritten0), "records-rewritten")
}
