package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"hornet/internal/obs"
)

// tracer records spans around the benchmark's calls into each layer. It
// lives entirely in bench/: nothing inside internal/ knows about it. A
// nil *tracer is the untraced run — every method is a no-op — so the same
// workload code serves both runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Parent is the index of the span that caused it
// (-1 for roots); Track groups the spans of one closed-loop client and
// Req names the request they belong to.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Track      int
	Req        string
	Args       map[string]any
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle; pass -1 for no parent.
func (t *tracer) begin(name string, parent, track int, req string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Track: track, Req: req})
	return len(t.spans) - 1
}

// end closes a span, attaching optional arguments.
func (t *tracer) end(id int, args map[string]any) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Args = args
}

// time runs fn inside a span and returns its duration whether or not a
// tracer is attached, so layer measurements read the same clock the
// trace shows.
func (t *tracer) time(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent, 0, "")
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id, nil)
	return d
}

// durationsMS returns the duration of every closed span called name, in
// milliseconds.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += self[i]
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, microseconds), which Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path, workload string) error {
	t.mu.Lock()
	doc := obs.TraceDocument{DisplayTimeUnit: "ms", OtherData: map[string]string{"workload": workload}}
	for i, s := range t.spans {
		args := map[string]any{"id": i}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
		}
		if s.Req != "" {
			args["request"] = s.Req
		}
		for k, v := range s.Args {
			args[k] = v
		}
		doc.TraceEvents = append(doc.TraceEvents, obs.TraceEvent{Name: s.Name, Phase: "X",
			Ts: s.Start.Microseconds(), Dur: (s.End - s.Start).Microseconds(), Pid: 1, Tid: s.Track, Args: args})
	}
	t.mu.Unlock()
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
