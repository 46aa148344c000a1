package core

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hornet/internal/config"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/summary_golden.json from this run")

// goldenCycles is how long each pinned run simulates.
const goldenCycles = 2000

// goldenCase is one short synthetic run whose Summary() digest is pinned.
type goldenCase struct {
	name string
	cfg  config.Config
}

// goldenCases spans every routing algorithm × VC allocator × link mode
// the router's RC/VA/SA code branches on, on two mesh sizes. The load is
// high enough that VA starvation, rerouting and credit stalls all occur.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, size := range []int{4, 8} {
		for _, alg := range []string{config.RouteXY, config.RouteO1Turn, config.RouteROMM,
			config.RouteValiant, config.RoutePROM, config.RouteAdaptive} {
			for _, vca := range []string{config.VCADynamic, config.VCAStaticSet, config.VCAEDVCA, config.VCAFAA} {
				for _, bidir := range []bool{false, true} {
					cfg := config.Default()
					cfg.Topology.Width, cfg.Topology.Height = size, size
					cfg.Power.EpochCycles = 1000
					cfg.Routing.Algorithm = alg
					cfg.Router.VCAlloc = vca
					cfg.Router.Bidirectional = bidir
					cfg.Traffic = []config.TrafficConfig{
						{Pattern: config.PatternUniform, InjectionRate: 0.04},
						{Pattern: config.PatternTranspose, InjectionRate: 0.04},
					}
					link := "fixed"
					if bidir {
						link = "bidir"
					}
					out = append(out, goldenCase{
						name: fmt.Sprintf("mesh%d/%s/%s/%s", size, alg, vca, link),
						cfg:  cfg,
					})
				}
			}
		}
	}
	return out
}

// summaryDigest hashes every simulated statistic of a run: the aggregate
// summary with its per-flow records, plus the in-flight count. It also
// checks flit conservation, which must hold whatever the digest is.
func summaryDigest(t *testing.T, cfg config.Config, workers int) string {
	t.Helper()
	cfg.Engine.Workers = workers
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Workers() != workers {
		t.Fatalf("asked for %d engine workers, got %d", workers, sys.Workers())
	}
	if err := sys.AttachSyntheticTraffic(); err != nil {
		t.Fatal(err)
	}
	if res := sys.Run(goldenCycles); res.Err != nil || res.Cycles != goldenCycles {
		t.Fatalf("run: %+v", res)
	}
	return systemDigest(t, sys, workers)
}

// systemDigest is summaryDigest's hash of a system that has run.
func systemDigest(t *testing.T, sys *System, workers int) string {
	t.Helper()
	sum := sys.Summary()
	if int64(sum.FlitsInjected-sum.FlitsDelivered) != sys.InFlight() {
		t.Errorf("workers=%d: flit conservation violated: injected %d, delivered %d, in flight %d",
			workers, sum.FlitsInjected, sum.FlitsDelivered, sys.InFlight())
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(sum); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "inflight=%d\n", sys.InFlight())
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestSummaryGolden pins the simulated statistics of the router pipeline
// beyond what bench/golden.json covers (XY/dynamic only): a change to the
// router, the buffers or the routing tables must reproduce every digest,
// with 1 engine worker and with 3, or re-record the table deliberately
// with -update and say why.
//
// Bandwidth-adaptive links are held to the same rule on 3 real engine
// workers: each side's arbiter reads only what the cycle before left, so no
// digest depends on which side's thread runs first.
func TestSummaryGolden(t *testing.T) {
	path := filepath.Join("testdata", "summary_golden.json")
	want := map[string]string{}
	if !*updateGolden {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (record it with: go test ./internal/core -run TestSummaryGolden -update)", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, c := range goldenCases() {
		if testing.Short() && c.cfg.Topology.Width > 4 {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			d := summaryDigest(t, c.cfg, 1)
			got[c.name] = d
			if d3 := summaryDigest(t, c.cfg, 3); d3 != d {
				t.Errorf("3 workers diverged from 1 worker: %s vs %s", d3, d)
			}
			if !*updateGolden && d != want[c.name] {
				t.Errorf("digest %s, golden %s", d, want[c.name])
			}
		})
	}
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs the full case list; drop -short")
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWideRouterMatchesAcrossWorkers runs a machine whose routers have more
// ingress VCs than one occupancy-mask word has bits (5 ports of 16 VCs),
// so the pass walks two words, and requires what TestSummaryGolden requires
// of the one-word machines: the same digest with 1 engine worker and with
// 3. TestSnapshotBytesGolden holds the same geometry to the bytes recorded
// before the mask existed.
func TestWideRouterMatchesAcrossWorkers(t *testing.T) {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Router.VCsPerPort, cfg.Router.VCBufFlits = 16, 2
	cfg.Routing.Algorithm = config.RouteO1Turn
	cfg.Traffic = []config.TrafficConfig{
		{Pattern: config.PatternUniform, InjectionRate: 0.10},
		{Pattern: config.PatternTranspose, InjectionRate: 0.06},
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingress := 0
	for _, p := range sys.Tiles()[5].Router.Ports() {
		ingress += len(p.In)
	}
	if ingress <= 64 {
		t.Fatalf("an inner router has %d ingress VCs: one mask word holds them all", ingress)
	}
	if d1, d3 := summaryDigest(t, cfg, 1), summaryDigest(t, cfg, 3); d1 != d3 {
		t.Errorf("3 workers diverged from 1 worker: %s vs %s", d3, d1)
	}
}
