package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a hand-rolled metrics registry exposing the Prometheus
// text format (version 0.0.4). It supports counters, gauges and
// histograms, each optionally labelled, plus Func variants that read a
// live value at scrape time — those are how the registry stays the
// single source of truth for state the server already tracks (job
// counts, budget occupancy, fleet counters) without double-counting.
//
// Registration is idempotent: asking for the same name+labels returns
// the existing instrument. Mixing types under one name panics — that
// is a programming error, not an operational condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Label is one name=value metric label.
type Label struct{ Name, Value string }

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// DefBuckets mirrors the classic Prometheus duration buckets (seconds).
var DefBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// SizeBuckets is a byte-size bucket ladder for blob/upload histograms.
var SizeBuckets = []float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}

type family struct {
	name, help, typ string
	series          map[string]instrument // key: rendered label set
}

type instrument interface {
	// write emits the sample lines for one series. fqName is the family
	// name, labels the pre-rendered label set ("" or `{a="b"}`).
	write(w *bufio.Writer, fqName, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]instrument)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (r *Registry) register(name, help, typ string, labels []Label, mk func() instrument) instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ)
	key := renderLabels(labels)
	if inst, ok := f.series[key]; ok {
		return inst
	}
	inst := mk()
	f.series[key] = inst
	return inst
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

func (c *Counter) write(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, "counter", labels, func() instrument { return &Counter{} }).(*Counter)
}

type counterFunc struct{ fn func() uint64 }

func (c counterFunc) write(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.fn())
}

// CounterFunc registers a counter whose value is read at scrape time.
// fn must be safe to call from any goroutine and monotone.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, "counter", labels, func() instrument { return counterFunc{fn} })
}

type gaugeFunc struct{ fn func() float64 }

func (g gaugeFunc) write(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.fn()))
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, func() instrument { return gaugeFunc{fn} })
}

// GaugeSample is one series emitted by a GaugeSetFunc at scrape time.
type GaugeSample struct {
	Labels []Label
	Value  float64
}

type gaugeSetFunc struct{ fn func() []GaugeSample }

func (g gaugeSetFunc) write(w *bufio.Writer, name, labels string) {
	samples := g.fn()
	rows := make([]string, 0, len(samples))
	for _, s := range samples {
		rows = append(rows, renderLabels(s.Labels)+" "+formatFloat(s.Value))
	}
	sort.Strings(rows)
	for _, row := range rows {
		fmt.Fprintf(w, "%s%s\n", name, row)
	}
}

// GaugeSetFunc registers a gauge family whose entire series set is
// produced fresh at each scrape: fn returns one sample per series, and
// series may come and go between scrapes. The fixed instruments never
// forget a label set once registered; this variant exists for
// inherently dynamic sets (e.g. the hottest links of currently running
// jobs). fn must not return duplicate label sets.
func (r *Registry) GaugeSetFunc(name, help string, fn func() []GaugeSample) {
	r.register(name, help, "gauge", nil, func() instrument { return gaugeSetFunc{fn} })
}

// Histogram counts observations into cumulative buckets, Prometheus
// style. Observe is lock-free (atomics only) so it is safe on warmish
// paths; the bucket search is a linear scan over a small ladder.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) write(w *bufio.Writer, name, labels string) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(b)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), h.count.Load())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

// Histogram registers (or fetches) a histogram with the given upper
// bounds (ascending; nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.register(name, help, "histogram", labels, func() instrument {
		h := &Histogram{bounds: bounds}
		h.counts = make([]atomic.Uint64, len(bounds))
		return h
	}).(*Histogram)
}

// WritePrometheus writes every registered family in the text
// exposition format, families and series in deterministic sorted
// order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the family/series structure under the lock; values are
	// read outside it (instruments are internally synchronized, and
	// Func instruments may take component locks we must not hold r.mu
	// across).
	type seriesRow struct {
		labels string
		inst   instrument
	}
	type famRow struct {
		name, help, typ string
		rows            []seriesRow
	}
	fams := make([]famRow, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fr := famRow{name: f.name, help: f.help, typ: f.typ}
		for _, k := range keys {
			fr.rows = append(fr.rows, seriesRow{labels: k, inst: f.series[k]})
		}
		fams = append(fams, fr)
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, row := range f.rows {
			row.inst.write(bw, f.name, row.labels)
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the exposition format; mount
// it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// renderLabels renders a label set as `{a="b",c="d"}` with escaped
// values, or "" for no labels. Label order is the caller's; callers
// use consistent ordering per instrument so the rendered key is
// stable.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// bucketLabels splices le="bound" into an existing rendered label set.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func escapeValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
