package experiments

import (
	"runtime"
	"testing"
)

// The shape tests assert the qualitative results the paper reports, not
// absolute numbers.
//
// Under `go test -short` the experiments run at Tiny scale: the same
// simulations over shrunk measurement windows, keeping every qualitative
// assertion while finishing in a few seconds per figure. Full runs (the
// default) keep the paper-shape windows.

func testOpts(t *testing.T) Options {
	t.Helper()
	return Options{Tiny: testing.Short()}
}

// skipHeavyUnderShortRace exempts the heaviest SPLASH sweeps from the
// short race gate: race instrumentation is 10-30x on the replay hot
// loop, and these figures re-exercise exactly the replay-through-sweep
// path Fig8 already covers (the thermal figures even run single-worker
// engines, adding no concurrent surface at all). A full (non-short)
// race run still includes them.
func skipHeavyUnderShortRace(t *testing.T) {
	t.Helper()
	if raceEnabled && testing.Short() {
		t.Skip("heavy SPLASH sweep: race coverage comes from Fig8's identical path")
	}
}

func TestFig8Shape(t *testing.T) {
	rows, _ := fig8(testOpts(t))
	byName := map[string]Fig8Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		t.Logf("%s: with=%.1f without=%.1f ratio=%.2f",
			r.Benchmark, r.WithCongestion, r.WithoutCongestion, r.Ratio)
	}
	radix, swap := byName["radix"], byName["swaptions"]
	if radix.Ratio < 1.5 {
		t.Errorf("radix congestion ratio %.2f, want >= 1.5 (paper ~2x)", radix.Ratio)
	}
	if swap.Ratio > radix.Ratio {
		t.Errorf("swaptions ratio %.2f exceeds radix %.2f; low-traffic should be mild",
			swap.Ratio, radix.Ratio)
	}
	if swap.Ratio < 0.95 {
		t.Errorf("swaptions ratio %.2f below 1: ideal model should not overestimate", swap.Ratio)
	}
}

func TestFig9Shape(t *testing.T) {
	skipHeavyUnderShortRace(t)
	rows, _ := fig9(testOpts(t))
	get := func(bench string, vcs, buf int, vca string) float64 {
		for _, r := range rows {
			if r.Benchmark == bench && r.VCs == vcs && r.BufFlits == buf && r.VCA == vca {
				return r.Latency
			}
		}
		t.Fatalf("missing row %s %dVCx%d %s", bench, vcs, buf, vca)
		return 0
	}
	for _, r := range rows {
		t.Logf("%s %dVCx%d %s: %.1f", r.Benchmark, r.VCs, r.BufFlits, r.VCA, r.Latency)
	}
	for _, bench := range []string{"radix"} {
		l2x8 := get(bench, 2, 8, "dynamic")
		l4x8 := get(bench, 4, 8, "dynamic")
		l4x4 := get(bench, 4, 4, "dynamic")
		if l4x8 <= l2x8 {
			t.Errorf("%s: 4VCx8 (%.1f) should exceed 2VCx8 (%.1f) under congestion", bench, l4x8, l2x8)
		}
		if l4x4 >= l4x8 {
			t.Errorf("%s: 4VCx4 (%.1f) should beat 4VCx8 (%.1f)", bench, l4x4, l4x8)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	skipHeavyUnderShortRace(t)
	rows, _ := fig10(testOpts(t))
	get := func(alg, vca string, vcs int) float64 {
		for _, r := range rows {
			if r.Routing == alg && r.VCA == vca && r.VCs == vcs {
				return r.Latency
			}
		}
		t.Fatalf("missing row %s/%s %dVC", alg, vca, vcs)
		return 0
	}
	for _, r := range rows {
		t.Logf("%s/%s %dVC: %.1f", r.Routing, r.VCA, r.VCs, r.Latency)
	}
	// Path-diverse algorithms should not lose badly to XY; the paper
	// shows them winning by a modest margin.
	xy := get("xy", "dynamic", 4)
	o1 := get("o1turn", "dynamic", 4)
	romm := get("romm", "dynamic", 4)
	if o1 > xy*1.25 || romm > xy*1.25 {
		t.Errorf("diverse routing much worse than XY: xy=%.1f o1turn=%.1f romm=%.1f", xy, o1, romm)
	}
}

func TestFig11Shape(t *testing.T) {
	skipHeavyUnderShortRace(t)
	rows, _ := fig11(testOpts(t))
	var lat1, lat5 []float64
	for _, r := range rows {
		t.Logf("%dMC %s/%s: %.1f", r.Controllers, r.Routing, r.VCA, r.Latency)
		if r.Controllers == 1 {
			lat1 = append(lat1, r.Latency)
		} else {
			lat5 = append(lat5, r.Latency)
		}
	}
	m1, m5 := mean(lat1), mean(lat5)
	if m5 >= m1 {
		t.Errorf("5 MC (%.1f) should beat 1 MC (%.1f)", m5, m1)
	}
	if m1/m5 >= 5 {
		t.Errorf("improvement %.1fx should be well below 5x (paper's point)", m1/m5)
	}
	// Routing choice matters less with 5 MCs: relative spread shrinks.
	if spread(lat5)/m5 > spread(lat1)/m1+0.35 {
		t.Errorf("routing spread with 5 MC (%.2f) should not exceed 1 MC (%.2f) much",
			spread(lat5)/m5, spread(lat1)/m1)
	}
}

func TestFig13Shape(t *testing.T) {
	skipHeavyUnderShortRace(t)
	series, _ := fig13(testOpts(t))
	var ocean, radix Fig13Series
	for _, s := range series {
		t.Logf("%s: %d epochs, swing=%.2fC", s.Benchmark, len(s.Cycle), s.SwingC)
		switch s.Benchmark {
		case "ocean":
			ocean = s
		case "radix":
			radix = s
		}
	}
	if len(ocean.Cycle) == 0 || len(radix.Cycle) == 0 {
		t.Fatal("missing series")
	}
	if radix.SwingC <= ocean.SwingC {
		t.Errorf("radix swing (%.2fC) should exceed ocean swing (%.2fC)", radix.SwingC, ocean.SwingC)
	}
}

func TestFig14Shape(t *testing.T) {
	skipHeavyUnderShortRace(t)
	maps, _ := fig14(testOpts(t))
	for _, m := range maps {
		t.Logf("%s: hotspot at (%d,%d) %.2fC, corner MC %.2fC",
			m.Benchmark, m.HotX, m.HotY, m.MaxTempC, m.CornerMCTempC)
		if m.HotX == 0 && m.HotY == 0 {
			t.Errorf("%s: hotspot at the MC corner; expected interior", m.Benchmark)
		}
		if m.HotX < 1 || m.HotX > 6 || m.HotY < 1 || m.HotY > 6 {
			t.Errorf("%s: hotspot (%d,%d) not interior", m.Benchmark, m.HotX, m.HotY)
		}
		if m.MaxTempC <= m.CornerMCTempC {
			t.Errorf("%s: centre (%.2f) not hotter than MC corner (%.2f)",
				m.Benchmark, m.MaxTempC, m.CornerMCTempC)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	r, _ := fig12(testOpts(t))
	t.Logf("ideal=%d replay=%d integrated=%d normRate=%.2f normTime=%.2f",
		r.IdealCycles, r.TraceReplayCycles, r.IntegratedCycles,
		r.NormInjectionRateTrace, r.NormExecTimeTrace)
	if r.NormExecTimeTrace >= 1 {
		t.Errorf("trace-based execution time (%.2f) should be < 1x integrated", r.NormExecTimeTrace)
	}
	if r.NormInjectionRateTrace <= 1 {
		t.Errorf("trace-based injection rate (%.2f) should exceed integrated", r.NormInjectionRateTrace)
	}
}

func TestSec4aLaw(t *testing.T) {
	r, _ := sec4a(testOpts(t))
	t.Logf("max flows: 8x8=%d (law %d), 32x32=%d (law %d); starved %d/%d",
		r.MaxFlows8, r.Law8, r.MaxFlows32, r.Law32, r.StarvedFlows, r.TotalFlows)
	if r.MaxFlows8 != r.Law8 {
		t.Errorf("8x8 max link flows %d != n^3/4 = %d", r.MaxFlows8, r.Law8)
	}
	if r.MaxFlows32 != r.Law32 {
		t.Errorf("32x32 max link flows %d != n^3/4 = %d", r.MaxFlows32, r.Law32)
	}
}

// TestFig6bShape checks that loose synchronization stays accurate at small
// periods. How accurate depends on how long a chunk of `period` cycles
// lasts against the host scheduler's quantum and on whether the sweep's
// four workers each have a CPU, so every period has a floor in every build
// and on every host, and the floor is 90 % wherever the measurements on
// the 2-vCPU reference box (accuracy in %, per repetition) allow it:
//
//	build, load               period 5   period 10  period 50  period 100
//	plain, quiet              99.4-100   98.5-99.8  94.0-97.0  91.3-96.4
//	plain, 1 competing proc   >= 99.7    98.6-99.2  79.1-86.7  70.9-79.8
//	plain, 2 competing procs  >= 99.6    98.5-98.6  79.3-86.1  61.3-70.4
//	plain, 4 competing procs  >= 99.3    98.6-99.0  85.8-89.5  61.1-63.4
//	plain -short, 2 procs     >= 99.7    98.3-99.3  -          61.3-66.8
//	-race -short, quiet       99.5       99.6       -          97.8
//	-race -short, 1-4 procs   98.9-100   91.6-92.8  -          75.9-77.9
//
// ("competing proc" = one CPU-bound process; `go test ./...` is such a
// load by itself, it runs two packages at a time on that box. Four workers
// on two CPUs park at every barrier without polling; accuracy here is a
// matter of how workers interleave between barriers, so a change to how
// sim.Barrier waits means reading this table again.) Periods <= 10 hold 90 % in every repetition. Under the race detector a cycle
// takes ten times longer, a 10-cycle chunk lasts as long as a 100-cycle
// chunk does natively and reads 91.6 % at worst, too close to assert 90:
// its floor there is 80 %. Periods 50 and 100 are asserted on the best of
// three repetitions (all are logged): 90 % when every worker has a CPU and
// runs at native speed, else 70 % and 50 %, which is what four workers
// drifting apart by whole chunks on two shared CPUs still clear with ten
// points to spare. The race build runs one repetition (16 s each).
func TestFig6bShape(t *testing.T) {
	const workers = 4 // fig6b's engine workers
	dedicated := runtime.NumCPU() >= workers && !raceEnabled
	reps := 3
	if raceEnabled {
		reps = 1
	}
	// floor is the accuracy a period must reach, in every repetition or
	// only in the best one.
	floor := func(period int) (pct float64, everyRep bool) {
		switch {
		case period <= 5:
			return 90, true
		case period <= 10 && raceEnabled:
			return 80, true
		case period <= 10:
			return 90, true
		case period <= 100 && dedicated:
			return 90, false
		case period <= 50:
			return 70, false
		case period <= 100:
			return 50, false
		}
		return 0, false // longer periods are the figure's falling tail
	}
	best := map[int]float64{}
	for rep := 1; rep <= reps; rep++ {
		rows, _ := fig6b(testOpts(t))
		if rows[0].Period != 1 || rows[0].AccuracyPct != 100 {
			t.Fatalf("cycle-accurate row malformed: %+v", rows[0])
		}
		for _, r := range rows {
			t.Logf("repetition %d period %4d: speedup=%.2f accuracy=%.1f%% latency=%.2f",
				rep, r.Period, r.Speedup, r.AccuracyPct, r.AvgLatency)
			if pct, everyRep := floor(r.Period); everyRep && r.AccuracyPct < pct {
				t.Errorf("repetition %d: period %d accuracy %.1f%% below %.0f%%", rep, r.Period, r.AccuracyPct, pct)
			}
			best[r.Period] = max(best[r.Period], r.AccuracyPct)
		}
	}
	for period, acc := range best {
		if pct, everyRep := floor(period); !everyRep && acc < pct {
			t.Errorf("period %d accuracy %.1f%% below %.0f%% in the best of %d repetitions", period, acc, pct, reps)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	rows, _ := fig7(testOpts(t))
	var burstGain, cbrGain float64
	for _, r := range rows {
		t.Logf("%s ff=%v workers=%d: wall=%v skipped=%d speedup=%.2f",
			r.Workload, r.FF, r.Workers, r.Wall, r.Skipped, r.Speedup)
		if r.FF && r.Workers == 1 {
			switch r.Workload {
			case "bitcomp":
				burstGain = r.Speedup
			case "h264":
				cbrGain = r.Speedup
			}
		}
	}
	if burstGain < cbrGain {
		t.Errorf("bursty bit-complement FF speedup (%.2f) should exceed h264 (%.2f)",
			burstGain, cbrGain)
	}
	if burstGain < 1.2 {
		t.Errorf("bursty FF speedup %.2f too small", burstGain)
	}
}

func TestTableISmoke(t *testing.T) {
	rows, _ := tableI(testOpts(t))
	if len(rows) < 4 {
		t.Fatalf("only %d Table I combinations ran", len(rows))
	}
	for _, r := range rows {
		t.Log(r)
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func spread(v []float64) float64 {
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}
