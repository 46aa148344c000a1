// Benchmarks regenerating every table and figure in the paper's
// evaluation through the experiment registry hornet-exp runs (one
// sub-benchmark of BenchmarkFigures per figure name; README.md,
// "Regenerating the paper's figures", lists them), plus engine
// micro-benchmarks. Run a single figure with e.g.
//
//	go test -bench='BenchmarkFigures/^8$' -benchtime=1x
//
// The figure benches default to CI-scale workloads; set HORNET_FULL=1 for
// paper-scale parameters.
package hornet_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/experiments"
	"hornet/internal/sweep"
)

func opts() experiments.Options {
	return experiments.Options{Full: experiments.FullFromEnv()}
}

// BenchmarkFigures times every registered experiment the way hornet-exp
// runs it, one sub-benchmark per figure name (experiments.Figures()).
func BenchmarkFigures(b *testing.B) {
	for _, f := range experiments.Figures() {
		b.Run(f.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, results := f.Run(opts()); len(results) == 0 {
					b.Fatalf("figure %s produced no sweep results", f.Name)
				}
			}
		})
	}
}

// BenchmarkSweepParallelism measures wall-clock scaling of the experiment
// sweep engine on the Fig 9 configuration sweep (12 independent SPLASH
// replays at Tiny scale): the headline number behind `hornet-exp
// -parallel N`. On a single-core host the two sub-benchmarks should tie.
func BenchmarkSweepParallelism(b *testing.B) {
	fig9, ok := experiments.FigureByName("9")
	if !ok {
		b.Fatal("figure 9 is not registered")
	}
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			o := opts()
			o.Tiny = !o.Full
			o.Parallel = par
			for i := 0; i < b.N; i++ {
				if _, results := fig9.Run(o); len(results) == 0 {
					b.Fatal("no sweep results")
				}
			}
		})
	}
}

// BenchmarkSweepOverhead isolates the engine's own cost: scheduling,
// seed derivation, budget accounting and result ordering for no-op runs.
func BenchmarkSweepOverhead(b *testing.B) {
	items := make([]sweep.Item, 256)
	for i := range items {
		items[i] = sweep.Item{
			Key: fmt.Sprintf("noop/%03d", i),
			Run: func(ctx sweep.Ctx) (any, error) { return ctx.Seed, nil },
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep.Run(context.Background(), items, sweep.Config{Workers: 8, Seed: 1})
	}
}

// BenchmarkRouterCycle measures raw simulation throughput: tile-cycles
// per second on an 8x8 mesh under moderate uniform load, the core number
// behind every figure's wall-clock cost.
func BenchmarkRouterCycle(b *testing.B) {
	cfg := config.Default()
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.05}}
	cfg.Engine.Workers = 1
	sys, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AttachSyntheticTraffic(); err != nil {
		b.Fatal(err)
	}
	sys.Run(1000) // warm the tables
	b.ReportAllocs()
	b.ResetTimer()
	sys.Run(uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(64), "tiles/cycle")
}

// BenchmarkCycleAccurateVsLoose quantifies the barrier cost difference
// between the two synchronization modes at 4 workers.
func BenchmarkCycleAccurateVsLoose(b *testing.B) {
	for _, period := range []int{1, 5, 100} {
		b.Run(map[int]string{1: "cycle-accurate", 5: "sync-5", 100: "sync-100"}[period], func(b *testing.B) {
			cfg := config.Default()
			cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.05}}
			cfg.Engine.Workers = 4
			cfg.Engine.SyncPeriod = period
			sys, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.AttachSyntheticTraffic(); err != nil {
				b.Fatal(err)
			}
			sys.Run(1000)
			b.ResetTimer()
			sys.Run(uint64(b.N))
		})
	}
}
