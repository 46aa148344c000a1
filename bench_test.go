// Benchmarks regenerating every table and figure in the paper's
// evaluation (one bench per experiment; README.md, "Regenerating the
// paper's figures", names them), plus engine micro-benchmarks. Run a
// single figure with e.g.
//
//	go test -bench=BenchFig8 -benchtime=1x
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

func BenchmarkTableI(b *testing.B) {
	benchRows(b, func() int { return len(experiments.TableI(opts())) })
}
func BenchmarkSec4aScaling(b *testing.B) {
	benchRows(b, func() int { return experiments.Sec4a(opts()).TotalFlows })
}
func BenchmarkFig6aSpeedup(b *testing.B) {
	benchRows(b, func() int { return len(experiments.Fig6a(opts())) })
}
func BenchmarkFig6bSyncPeriod(b *testing.B) {
	benchRows(b, func() int { return len(experiments.Fig6b(opts())) })
}
func BenchmarkFig7FastForward(b *testing.B) {
	benchRows(b, func() int { return len(experiments.Fig7(opts())) })
}
func BenchmarkFig8Congestion(b *testing.B) {
	benchRows(b, func() int { return len(experiments.Fig8(opts())) })
}
func BenchmarkFig9VCConfig(b *testing.B) {
	benchRows(b, func() int { return len(experiments.Fig9(opts())) })
}
func BenchmarkFig10RoutingVCA(b *testing.B) {
	benchRows(b, func() int { return len(experiments.Fig10(opts())) })
}
func BenchmarkFig11MemCtrl(b *testing.B) {
	benchRows(b, func() int { return len(experiments.Fig11(opts())) })
}
func BenchmarkFig12TraceVsIntegrated(b *testing.B) {
	benchRows(b, func() int { return int(experiments.Fig12(opts()).PacketsSent) })
}
func BenchmarkFig13ThermalTransient(b *testing.B) {
	benchRows(b, func() int { return len(experiments.Fig13(opts())) })
}
func BenchmarkFig14ThermalMap(b *testing.B) {
	benchRows(b, func() int { return len(experiments.Fig14(opts())) })
}

func benchRows(b *testing.B, run func() int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if run() == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkSweepParallelism measures wall-clock scaling of the experiment
// sweep engine on the Fig 9 configuration sweep (12 independent SPLASH
// replays at Tiny scale): the headline number behind `hornet-exp
// -parallel N`. On a single-core host the two sub-benchmarks should tie.
func BenchmarkSweepParallelism(b *testing.B) {
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			o := opts()
			o.Tiny = !o.Full
			o.Parallel = par
			for i := 0; i < b.N; i++ {
				if len(experiments.Fig9(o)) == 0 {
					b.Fatal("no rows")
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
