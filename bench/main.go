// Command bench is the repository's one layered benchmark: four
// workloads, end-to-end metrics measured with nothing attached, per-layer
// metrics from a separate traced run, and a correctness gate that checks
// the simulated statistics did not move. See README.md in this directory.
//
//	go run ./bench                          every workload, end-to-end
//	go run ./bench -trace 1                 ... plus the traced run of each
//	go run ./bench -workload mips-msi       one workload
//	go run ./bench -compare A.json B.json   verdict per workload and metric
//	go run ./bench -update-golden           rewrite bench/golden.json
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run fills
// with timed work when -seconds is not given.
const defaultSeconds = 25

// goldenSeed is the seed bench/golden.json was recorded at.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden pins, per workload, the digest and the exact counts of the
// fixed work at goldenSeed.
type golden map[string]struct {
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// ResultSet is what a full invocation writes and -compare reads: every
// report of one or more runs of every workload on one commit.
type ResultSet struct {
	Commit  string    `json:"commit"`
	Host    Host      `json:"host"`
	Seconds float64   `json:"seconds"`
	Note    string    `json:"note"`
	Reports []*Report `json:"reports"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload and end with the one-line result")
	seed := fs.Uint64("seed", goldenSeed, "seed of the input generator")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time per run; the fixed work always completes")
	trace := fs.Int("trace", 0, "1: traced run (per-layer metrics, spans to -out); 0: end-to-end run")
	runs := fs.Int("runs", 1, "repeat each workload this many times, at seed, seed+1, ...")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	updateGolden := fs.Bool("update-golden", false, "record bench/golden.json at the default seed")
	child := fs.Bool("child", false, "internal: run one workload in this process")
	setupOnly := fs.Bool("setup-only", false, "internal: stop after set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := childOpts{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		SetupOnly: *setupOnly, Scale: 1, Out: *out}
	var err error
	switch {
	case *child:
		var r *Report
		if r, err = runChild(o); err == nil {
			err = json.NewEncoder(stdout).Encode(r)
		}
	case *compare:
		if fs.NArg() != 2 {
			err = errors.New("-compare takes two result files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && regressed {
			return 1
		}
	case *updateGolden:
		err = recordGolden(o)
	case *workload != "":
		err = runOne(stdout, o)
	default:
		err = runAll(stdout, o, *runs, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runChild executes one workload in this process.
func runChild(o childOpts) (*Report, error) {
	r := newReport(o)
	var err error
	if spec := simSpecByName(o.Workload); spec != nil {
		err = runSim(spec, o, r)
	} else if o.Workload == "serve-mix" {
		err = runServe(o, r)
	} else {
		err = fmt.Errorf("unknown workload %q", o.Workload)
	}
	// A ratio over an empty sample or a zero denominator has no value;
	// JSON cannot carry NaN, so such a metric is dropped and reads as 0.
	for _, group := range []map[string]Metric{r.EndToEnd, r.PerLayer} {
		for name, m := range group {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || math.IsNaN(m.Q1) || math.IsNaN(m.Q3) {
				fmt.Fprintf(logw, "bench: %s %s has no value in this run\n", o.Workload, name)
				delete(group, name)
			}
		}
	}
	return r, err
}

// spawn runs one workload in a child process of this binary, so its peak
// RSS, heap and GC state are its own and a crash in the program under
// test cannot take the benchmark down with it. An interrupted or
// terminated benchmark kills the child and waits for it before it leaves.
func spawn(o childOpts) (*Report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := 0
	if o.Trace {
		trace = 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", o.Workload,
		"-seed", fmt.Sprint(o.Seed), "-seconds", fmt.Sprint(o.Seconds),
		"-trace", fmt.Sprint(trace), "-out", o.Out, fmt.Sprintf("-setup-only=%v", o.SetupOnly))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: child process: %w", o.Workload, err)
	}
	r := &Report{}
	if err := json.Unmarshal(stdout.Bytes(), r); err != nil {
		return nil, fmt.Errorf("workload %s: child output: %w", o.Workload, err)
	}
	return r, nil
}

// measure runs one workload end to end: for end-to-end runs a set-up-only
// child before and after the measuring child, so setup_s is a median of
// readings spread over the whole run and a slow spell of the host has to
// cover most of it to move the median; then the golden check.
func measure(o childOpts, checkGolden bool) (*Report, error) {
	var setups []float64
	setupOnly := func() error {
		so := o
		so.SetupOnly = true
		s, err := spawn(so)
		if err == nil {
			setups = append(setups, s.EndToEnd["setup_s"].Value)
		}
		return err
	}
	if !o.Trace {
		if err := setupOnly(); err != nil {
			return nil, err
		}
	}
	r, err := spawn(o)
	if err != nil {
		return nil, err
	}
	if !o.Trace {
		setups = append(setups, r.EndToEnd["setup_s"].Value)
		if err := setupOnly(); err != nil {
			return nil, err
		}
		r.EndToEnd["setup_s"] = summarize(setups, "s")
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	r.EndToEnd["failed_share"] = Metric{Value: share, Unit: "share", N: r.Attempted}
	if checkGolden && o.Seed == goldenSeed {
		var g golden
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			return nil, fmt.Errorf("golden.json: %w", err)
		}
		want := g[o.Workload]
		r.check("golden-digest", r.Digest == want.Digest,
			fmt.Sprintf("digest %s, golden %s", r.Digest, want.Digest))
		if o.Trace {
			for name, v := range want.Counts {
				r.check("golden-"+name, r.PerLayer[name].Value == v,
					fmt.Sprintf("%v, golden %v", r.PerLayer[name].Value, v))
			}
		}
	}
	return r, nil
}

// runOne is the single-workload invocation: metrics by name, then — as
// the last line of standard output — the one-line result with exactly the
// metrics BENCHMARK.json lists for this kind of run.
func runOne(stdout io.Writer, o childOpts) error {
	r, err := measure(o, true)
	if err != nil {
		return err
	}
	printHeader(stdout)
	printMetrics(stdout, r)
	kind := "trace0"
	defs, have := contractEndToEnd, r.EndToEnd
	if o.Trace {
		kind, defs, have = "trace1", perLayer, r.PerLayer
	}
	if err := writeJSON(filepath.Join(o.Out, fmt.Sprintf("%s-%s.json", o.Workload, kind)), r); err != nil {
		return err
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, map[string]Metric{}}
	for _, d := range defs {
		// Value and unit only; 0 where the workload has no such layer.
		line.Metrics[d.Name] = Metric{Value: have[d.Name].Value, Unit: d.Unit}
	}
	return json.NewEncoder(stdout).Encode(line)
}

// runAll runs every workload (and, with traced set, each one's traced
// run too), prints every metric and writes the result set.
func runAll(stdout io.Writer, o childOpts, runs int, traced bool) error {
	set := ResultSet{Commit: commit(), Host: hostInfo(), Seconds: o.Seconds,
		Note: "model unvalidated: the repository holds no hardware reference results, so no error figure is given; what is checked, exactly, is that simulated statistics repeat bit-for-bit"}
	printHeader(stdout)
	failed := false
	for i := 0; i < runs; i++ {
		for _, w := range workloadList {
			o.Workload, o.Trace = w.Name, false
			plain, err := measure(o, true)
			if err != nil {
				return err
			}
			printMetrics(stdout, plain)
			set.Reports = append(set.Reports, plain)
			failed = failed || !plain.Correct() || plain.Failed > 0
			if !traced {
				continue
			}
			o.Trace = true
			tr, err := measure(o, true)
			if err != nil {
				return err
			}
			printMetrics(stdout, tr)
			set.Reports = append(set.Reports, tr)
			failed = failed || !tr.Correct() || tr.Failed > 0
			fmt.Fprintf(stdout, "%-14s tracing overhead: traced rate / untraced rate = %.4f (base: untraced %.6g 1/s)\n",
				w.Name, tr.EndToEnd["tile_cycles_per_s"].Value/plain.EndToEnd["tile_cycles_per_s"].Value,
				plain.EndToEnd["tile_cycles_per_s"].Value)
		}
		o.Seed++
	}
	path := filepath.Join(o.Out, "BENCH.json")
	if err := writeJSON(path, set); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "result set:", path)
	if failed {
		return errors.New("a correctness check or an operation failed")
	}
	return nil
}

func printHeader(w io.Writer) {
	h := hostInfo()
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OS, h.Arch)
	fmt.Fprintln(w, "model unvalidated: no hardware reference results in this repository, no error figure given")
}

// recordGolden rewrites bench/golden.json from a traced run of the fixed
// work of every workload. Run it from the repository root, and only when
// a change is meant to alter simulated results.
func recordGolden(o childOpts) error {
	g := golden{}
	o.Seed, o.Seconds, o.Trace = goldenSeed, 0, true
	for _, w := range workloadList {
		o.Workload = w.Name
		r, err := measure(o, false)
		if err != nil {
			return err
		}
		if !r.Correct() || r.Failed > 0 {
			printMetrics(os.Stderr, r)
			return fmt.Errorf("workload %s does not pass its own checks; golden file left alone", w.Name)
		}
		e := g[w.Name]
		e.Digest = r.Digest
		for _, name := range exactLayer {
			if m, ok := r.PerLayer[name]; ok {
				if e.Counts == nil {
					e.Counts = map[string]float64{}
				}
				e.Counts[name] = m.Value
			}
		}
		g[w.Name] = e
	}
	return writeJSON(filepath.Join("bench", "golden.json"), g)
}

// commit is the revision this binary was built from, when the build
// recorded one.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
	}
	return rev + dirty
}
