package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procStart is as close to process start as Go code gets; set-up time is
// measured from it.
var procStart = time.Now()

// logw receives diagnostics; standard output carries only results.
var logw io.Writer = os.Stderr

// childOpts is what one workload process is asked to do.
type childOpts struct {
	Workload  string
	Seed      uint64
	Seconds   float64 // measuring time to fill beyond the fixed work
	Trace     bool
	SetupOnly bool   // stop at the first timed cycle and report setup_s alone
	Scale     int    // divides every workload's simulated size; 1 outside tests
	Out       string // directory for trace files
}

// Check is one correctness condition and whether it held.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Host describes where a report was measured.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostInfo() Host {
	return Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
}

// Report is the result of one workload run: the unit both the contract
// line and the result files are made from.
type Report struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Digest is the hash of the simulated statistics at the end of the
	// fixed work (sim workloads) or of the warm-up documents (serve-mix).
	Digest   string            `json:"digest,omitempty"`
	Checks   []Check           `json:"checks"`
	EndToEnd map[string]Metric `json:"end_to_end"`
	PerLayer map[string]Metric `json:"per_layer,omitempty"`
	// SelfTimeMS is each span name's time not covered by child spans
	// (traced runs).
	SelfTimeMS map[string]float64 `json:"self_time_ms,omitempty"`
}

func newReport(o childOpts) *Report {
	return &Report{Workload: o.Workload, Seed: o.Seed, Trace: o.Trace,
		EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{}}
}

func (r *Report) check(name string, ok bool, detail string) {
	if ok {
		detail = ""
	}
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: detail})
}

// Correct reports whether every check held.
func (r *Report) Correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// peakRSSMB is this process's resident-set high-water mark so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeTrace stores the traced run's spans and folds their self times
// into the report.
func writeTrace(tr *tracer, o childOpts, r *Report) error {
	r.SelfTimeMS = map[string]float64{}
	for name, d := range tr.selfTimes() {
		r.SelfTimeMS[name] = float64(d) / 1e6
	}
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return err
	}
	return tr.writeChrome(filepath.Join(o.Out, "trace-"+o.Workload+".json"), o.Workload)
}

// printMetrics lists a report's metrics by name with their units.
func printMetrics(w io.Writer, r *Report) {
	for _, group := range []struct {
		title string
		m     map[string]Metric
	}{{"end-to-end", r.EndToEnd}, {"per-layer", r.PerLayer}} {
		names := make([]string, 0, len(group.m))
		for name := range group.m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group.m[name]
			fmt.Fprintf(w, "%-14s %-11s %-36s %14.6g %s", r.Workload, group.title, name, m.Value, m.Unit)
			if m.N > 1 && m.Q1 != 0 {
				fmt.Fprintf(w, "  (n=%d q1=%.6g q3=%.6g)", m.N, m.Q1, m.Q3)
			} else if m.N > 0 {
				fmt.Fprintf(w, "  (n=%d)", m.N)
			}
			fmt.Fprintln(w)
		}
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "%-14s CHECK FAILED %s: %s\n", r.Workload, c.Name, c.Detail)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
