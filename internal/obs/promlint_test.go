package obs

import (
	"bytes"
	"strings"
	"testing"
)

// A registry exercising every instrument kind — including the dynamic
// GaugeSetFunc series — must render an exposition the strict linter
// accepts; this is the same check CI runs over the live daemons.
func TestLintAcceptsRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "Requests.", L("route", "GET /x"), L("code", "200")).Inc()
	r.GaugeFunc("t_live", "Live.", func() float64 { return 1 })
	r.Histogram("t_latency_seconds", "Latency.", nil).Observe(0.02)
	r.GaugeSetFunc("t_link_occupancy", "Hot links.", func() []GaugeSample {
		return []GaugeSample{
			{Labels: []Label{L("job", "j1"), L("from", "0"), L("to", "1")}, Value: 4},
			{Labels: []Label{L("job", "j1"), L("from", "7"), L("to", "3")}, Value: 2},
		}
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := LintPrometheusText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("linter rejected the registry's own exposition:\n%v\n---\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `t_link_occupancy{job="j1",from="0",to="1"} 4`) {
		t.Errorf("GaugeSetFunc series missing from exposition:\n%s", buf.String())
	}
}

// The linter must reject the scraper-visible violations it exists to
// catch; each case is a minimal exposition with exactly one defect.
func TestLintRejectsViolations(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "x_total 1\n",
		"duplicate series": "# TYPE x_total counter\n" +
			"x_total 1\nx_total 2\n",
		"bad metric name": "# TYPE 0bad counter\n",
		"bad label name": "# TYPE x gauge\n" +
			"x{0bad=\"v\"} 1\n",
		"unquoted label value": "# TYPE x gauge\n" +
			"x{a=v} 1\n",
		"bad escape in label value": "# TYPE x gauge\n" +
			"x{a=\"\\q\"} 1\n",
		"bad value":    "# TYPE x gauge\nx yes\n",
		"unknown type": "# TYPE x thing\n",
		"HELP after TYPE": "# TYPE x gauge\n" +
			"# HELP x late\n",
		"interleaved families": "# TYPE a counter\n# TYPE b counter\n" +
			"a_total 1\n",
		"reopened family": "# TYPE a counter\na 1\n" +
			"# TYPE b counter\nb 1\n" +
			"a 2\n",
		"bare histogram sample": "# TYPE h histogram\n" +
			"h 1\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\n",
	}
	for name, text := range cases {
		if err := LintPrometheusText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: linter accepted:\n%s", name, text)
		}
	}

	// And the valid shapes those defects are mutations of must pass.
	valid := "# HELP h Latency.\n# TYPE h histogram\n" +
		"h_bucket{le=\"0.1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 0.4\nh_count 5\n" +
		"# TYPE x gauge\n" +
		"x{a=\"with \\\"quotes\\\" and \\n\"} 1\n" +
		"x NaN\n"
	if err := LintPrometheusText(strings.NewReader(valid)); err != nil {
		t.Errorf("linter rejected a valid exposition: %v", err)
	}
}
