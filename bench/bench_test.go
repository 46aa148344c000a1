package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Same seed, byte-identical inputs; another seed, different inputs.
func TestGeneratorDeterminism(t *testing.T) {
	inputs := func(seed uint64) [][]byte {
		return [][]byte{
			mustJSON(t, meshConfig(8, "uniform", 0.05, 1, seed)),
			mustJSON(t, meshConfig(32, "shuffle", 0.02, 2, seed)),
			mustJSON(t, mipsConfig(seed)),
			[]byte(newStencil(seed, stencilEndless).source()),
			newStencil(seed, stencilEndless).image(),
			mustJSON(t, serveOps(seed, 0, 200)),
			mustJSON(t, serveOps(seed, 1, 200)),
		}
	}
	a, b, c := inputs(7), inputs(7), inputs(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("input %d differs between two generations at the same seed", i)
		}
		if i != 3 && bytes.Equal(a[i], c[i]) { // the kernel text may coincide: only its slice length varies
			t.Errorf("input %d is the same at seeds 7 and 8", i)
		}
	}
	if bytes.Equal(a[5], a[6]) {
		t.Error("both clients got the same request sequence")
	}
}

// The request mix is what the workload promises: the first op is new,
// repeats point at earlier new ops of the same client, and new content
// addresses never collide, within or across clients.
func TestServeOpsShape(t *testing.T) {
	seen := map[string]bool{}
	for client := 0; client < 2; client++ {
		ops := serveOps(3, client, 2000)
		repeats := 0
		for i, op := range ops {
			if op.Repeat >= 0 {
				repeats++
				if op.Repeat >= i || ops[op.Repeat].Repeat >= 0 {
					t.Fatalf("client %d op %d repeats op %d, which is not an earlier new op", client, i, op.Repeat)
				}
				continue
			}
			key := string(op.Req.Scenario)
			if seen[key] {
				t.Fatalf("client %d op %d: scenario already used", client, i)
			}
			seen[key] = true
		}
		if ops[0].Repeat >= 0 {
			t.Errorf("client %d starts with a repeat", client)
		}
		if share := float64(repeats) / float64(len(ops)); share < 0.45 || share > 0.55 {
			t.Errorf("client %d: %.2f of ops are repeats, want about half", client, share)
		}
	}
}

// The generated kernel assembles, runs to completion when given a finite
// iteration count, and satisfies its closed form; a corrupted word does
// not.
func TestStencilKernelClosedForm(t *testing.T) {
	st := newStencil(5, 3)
	inst, err := buildStencil(mipsConfig(5), st)
	if err != nil {
		t.Fatal(err)
	}
	res := inst.sys.RunUntil(2_000_000, inst.sys.CoresHalted(inst.cores))
	if !res.Stopped {
		t.Fatalf("kernel did not halt within %d cycles", res.Cycles)
	}
	done := make([]uint32, len(inst.cores))
	for i, c := range inst.cores {
		done[i] = c.Regs[regIters]
		if done[i] != st.Iters || c.Console() == "" {
			t.Errorf("core %d: %d iterations, console %q; want %d and a checksum", i, done[i], c.Console(), st.Iters)
		}
	}
	shared := inst.shared()
	if err := st.checkSlices(shared, done); err != nil {
		t.Errorf("closed form: %v", err)
	}
	// Neighbours read every slice each iteration, which forces the owner's
	// lines home: the shared array cannot still be at its preloaded values.
	if bytes.Equal(shared, st.image()) {
		t.Error("home stores never saw a write-back")
	}
	shared[st.Pitch+st.Stride]++ // core 1, word 1: no longer a multiple of 2 above its initial value
	if err := st.checkSlices(shared, done); err == nil {
		t.Error("closed form accepted a corrupted word")
	}
}

func TestStatsHelpers(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); !near(q1, 1) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := percentile(xs, 95); got != 10 {
		t.Errorf("p95 of ten = %v, want 10", got)
	}
	lat := make([]float64, 200)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if got := percentile(lat, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond it)", got)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{"tile_cycles_per_s", "1/s", "higher", 0.10}
	rss := metricDef{"peak_rss_mb", "MB", "lower", 0.10}
	fail := metricDef{"failed_share", "share", "lower", 0}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name          string
		def           metricDef
		base, changed []float64
		want          string
	}{
		{"same", rate, steady, steady, verdictOK},
		{"faster", rate, steady, []float64{150, 151, 149}, verdictOK},
		{"within bound", rate, steady, []float64{93, 94, 92}, verdictOK},
		{"slower", rate, steady, []float64{80, 81, 79}, verdictRegressed},
		{"more memory", rss, steady, []float64{120, 121, 119}, verdictRegressed},
		{"less memory", rss, steady, []float64{80, 81, 79}, verdictOK},
		{"noisy base", rate, []float64{60, 100, 140, 80, 120}, []float64{80, 81, 79}, verdictUnresolved},
		{"noisy change", rate, steady, []float64{40, 80, 120, 60, 100}, verdictUnresolved},
		{"single runs", rate, []float64{100}, []float64{80}, verdictRegressed},
		{"no failures", fail, []float64{0, 0}, []float64{0, 0}, verdictOK},
		{"new failures", fail, []float64{0, 0}, []float64{0.01, 0.01}, verdictRegressed},
	} {
		if _, _, _, got := judge(tc.def, tc.base, tc.changed); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	set := func(rate, failed float64, digest string) *ResultSet {
		s := &ResultSet{Commit: "fixture"}
		for seed := uint64(1); seed <= 3; seed++ {
			s.Reports = append(s.Reports, &Report{Workload: "mesh8-serial", Seed: seed, Digest: digest,
				EndToEnd: map[string]Metric{
					"tile_cycles_per_s": {Value: rate + float64(seed), Unit: "1/s"},
					"failed_share":      {Value: failed, Unit: "share"},
				}})
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *ResultSet) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", set(1000, 0, "aaa"))
	for _, tc := range []struct {
		name      string
		changed   *ResultSet
		regressed bool
		mention   string
	}{
		{"unchanged", set(1000, 0, "aaa"), false, "ok"},
		{"slower", set(700, 0, "aaa"), true, "regressed"},
		{"failing", set(1000, 0.1, "aaa"), true, "regressed"},
		{"moved statistics", set(1000, 0, "bbb"), false, "DIFFERS mesh8-serial seed 1 digest"},
	} {
		var out bytes.Buffer
		got, err := compareFiles(&out, base, write(tc.name+".json", tc.changed))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.regressed || !strings.Contains(out.String(), tc.mention) {
			t.Errorf("%s: regressed=%v, want %v and %q in:\n%s", tc.name, got, tc.regressed, tc.mention, out.String())
		}
	}
	if code := run([]string{"-compare", base, write("bad.json", set(700, 0, "aaa"))}, &bytes.Buffer{}); code != 1 {
		t.Errorf("-compare on a regression exited %d, want 1", code)
	}
}

// Every workload, end-to-end and traced, at one hundredth of its size:
// all checks hold, no operation fails, every metric the one-line result
// promises is there, and the trace loads.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			o := childOpts{Workload: w.Name, Seed: 2, Seconds: 0, Trace: traced, Scale: 100, Out: t.TempDir()}
			r, err := runChild(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.Correct() || r.Failed != 0 || r.Attempted == 0 || r.Digest == "" {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d digest=%q checks=%+v",
					w.Name, traced, r.Correct(), r.Attempted, r.Failed, r.Digest, r.Checks)
			}
			for _, d := range contractEndToEnd {
				if m := r.EndToEnd[d.Name]; !(m.Value > 0) || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: end-to-end %s = %+v", w.Name, traced, d.Name, m)
				}
			}
			if _, err := json.Marshal(r); err != nil {
				t.Errorf("%s traced=%v: report does not encode: %v", w.Name, traced, err)
			}
			if !traced {
				continue
			}
			known := map[string]string{}
			for _, d := range perLayer {
				known[d.Name] = d.Unit
			}
			for name, m := range r.PerLayer {
				if known[name] != m.Unit {
					t.Errorf("%s: per-layer %s has unit %q, catalogue says %q", w.Name, name, m.Unit, known[name])
				}
			}
			b, err := os.ReadFile(filepath.Join(o.Out, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("%s: trace file: %d events, err %v", w.Name, len(doc.TraceEvents), err)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceBuild() {
		t.Errorf("smoke took %v, want under 10s", d)
	}
}

// BENCHMARK.json at the repository root names the same workloads and
// metrics as the catalogue, inside the limits its schema sets.
func TestBenchmarkJSONInStep(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v; want %d and [bench]", doc.RunSeconds, doc.Paths, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}
	if len(doc.Workloads) != len(workloadList) {
		t.Fatalf("%d workloads, catalogue has %d", len(doc.Workloads), len(workloadList))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w != workloadList[i] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d = %+v, catalogue %+v", i, w, workloadList[i])
		}
	}
	if len(doc.EndToEnd) != len(contractEndToEnd) {
		t.Fatalf("%d end-to-end metrics, catalogue has %d", len(doc.EndToEnd), len(contractEndToEnd))
	}
	largest := 0.0
	for i, m := range doc.EndToEnd {
		name(m.Name)
		d := contractEndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound ||
			m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %d = %+v, catalogue %+v", i, m, d)
		}
		largest = max(largest, m.Bound)
	}
	if d := contractEndToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" || d.Bound != largest {
		t.Errorf("setup_s must be there, in s, lower is better, with the largest bound: %+v", d)
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, catalogue has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d = %+v, catalogue %+v", i, m, d)
		}
	}
	for _, n := range exactLayer {
		if !names[n] {
			t.Errorf("exact count %s is not a per-layer metric", n)
		}
	}
}

// raceBuild reports whether the test binary was built with -race, which
// slows the simulator roughly tenfold.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
