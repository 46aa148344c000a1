package obs

import (
	"strings"
	"testing"
	"time"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hornet_things_total", "Things that happened.")
	c.Inc()
	c.Add(2)
	r.CounterFunc("hornet_live_total", "Live-read counter.", func() uint64 { return 42 })
	r.GaugeFunc("hornet_live_level", "Live-read gauge.", func() float64 { return 7 })

	out := expose(t, r)
	for _, want := range []string{
		"# HELP hornet_things_total Things that happened.\n# TYPE hornet_things_total counter\nhornet_things_total 3\n",
		"hornet_live_total 42\n",
		"# TYPE hornet_live_level gauge\nhornet_live_level 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscapingAndOrdering(t *testing.T) {
	r := NewRegistry()
	// Registered out of order: exposition must sort families by name
	// and series by rendered label set.
	r.Counter("zzz_total", "Last family.").Inc()
	r.Counter("aaa_total", "First family.", L("state", "running")).Add(2)
	r.Counter("aaa_total", "First family.", L("state", "done")).Add(1)
	r.Counter("esc_total", `Help with backslash \ inside.`,
		L("path", `C:\dir`), L("msg", "a \"quoted\"\nline")).Inc()

	out := expose(t, r)
	ia := strings.Index(out, "# TYPE aaa_total")
	iz := strings.Index(out, "# TYPE zzz_total")
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("families not sorted (aaa at %d, zzz at %d):\n%s", ia, iz, out)
	}
	done := strings.Index(out, `aaa_total{state="done"} 1`)
	running := strings.Index(out, `aaa_total{state="running"} 2`)
	if done < 0 || running < 0 || done > running {
		t.Fatalf("series not sorted by label set:\n%s", out)
	}
	if !strings.Contains(out, `# HELP esc_total Help with backslash \\ inside.`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{path="C:\\dir",msg="a \"quoted\"\nline"} 1`) {
		t.Errorf("label values not escaped:\n%s", out)
	}
	// Idempotent registration: same name+labels returns the same
	// instrument, not a second series.
	c := r.Counter("aaa_total", "First family.", L("state", "done"))
	c.Inc()
	if got := expose(t, r); !strings.Contains(got, `aaa_total{state="done"} 2`) {
		t.Errorf("re-registration created a new series:\n%s", got)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hornet_lat_seconds", "Latency.", []float64{0.1, 1, 10}, L("route", "/x"))
	// Exactly-representable values so the _sum renders predictably.
	for _, v := range []float64{0.0625, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := expose(t, r)
	for _, want := range []string{
		"# TYPE hornet_lat_seconds histogram\n",
		`hornet_lat_seconds_bucket{route="/x",le="0.1"} 1`,
		`hornet_lat_seconds_bucket{route="/x",le="1"} 3`,
		`hornet_lat_seconds_bucket{route="/x",le="10"} 4`,
		`hornet_lat_seconds_bucket{route="/x",le="+Inf"} 5`,
		`hornet_lat_seconds_sum{route="/x"} 56.0625`,
		`hornet_lat_seconds_count{route="/x"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram exposition missing %q:\n%s", want, out)
		}
	}
	h.ObserveDuration(10 * time.Millisecond)
	if out := expose(t, r); !strings.Contains(out, `hornet_lat_seconds_count{route="/x"} 6`) {
		t.Errorf("count after ObserveDuration is not 6:\n%s", out)
	}
}

func TestDeterministicOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "B.", L("x", "1")).Inc()
	r.Counter("a_total", "A.").Inc()
	r.GaugeFunc("m_gauge", "M.", func() float64 { return 3 }, L("k", "v"))
	first := expose(t, r)
	for i := 0; i < 5; i++ {
		if got := expose(t, r); got != first {
			t.Fatalf("exposition not deterministic:\n--- first\n%s\n--- run %d\n%s", first, i, got)
		}
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual_total", "C.")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	r.GaugeFunc("dual_total", "G.", func() float64 { return 0 })
}
