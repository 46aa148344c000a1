package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	scen "hornet/internal/scenario"
	"hornet/internal/service"
	"hornet/internal/service/backend"
	"hornet/internal/sweep"
)

// runScenario executes (or, with validate, dry-runs) one declarative
// scenario document locally: the same validation, normalization and
// execution path hornet-serve applies to {"scenario": ...} submissions,
// so the document printed here is byte-identical to what the daemon
// would cache and serve. Returns the process exit code.
func runScenario(arg string, validate bool, seed uint64, parallel int, ckptDir string, quiet bool) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "hornet-exp: "+format+"\n", args...)
		return 1
	}
	if seed != 0 {
		fmt.Fprintln(os.Stderr, "hornet-exp: scenario documents carry their own run.seed; omit -seed")
		return 2
	}
	raw, code := loadScenario(arg)
	if raw == nil {
		return code
	}
	req := service.SubmitRequest{Scenario: raw, Workers: parallel}

	if validate {
		resp, apiErr := service.DryRun(req)
		if apiErr != nil {
			return fail("invalid scenario: %v", apiErr)
		}
		b, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			return fail("%v", err)
		}
		os.Stdout.Write(append(b, '\n'))
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := service.ExecOptions{Workers: parallel}
	if ckptDir != "" {
		opts.Warmups = sweep.NewSnapshotCache(ckptDir)
	}
	if !quiet {
		// Progress lines only: the run stays unprobed and samples no
		// telemetry.
		opts.Sink, opts.TelemetryEvery = progressPrinter{}, -1
	}
	res, err := service.Execute(ctx, req, opts)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "hornet-exp: interrupted")
		return 130
	}
	if err != nil {
		return fail("%v", err)
	}
	os.Stdout.Write(res.Doc)
	if res.RunErrs > 0 {
		return fail("%d run(s) recorded errors in the document", res.RunErrs)
	}
	return 0
}

// progressPrinter reports each finished run on stderr.
type progressPrinter struct{ backend.Discard }

func (progressPrinter) Progress(done, total int, key string) {
	fmt.Fprintf(os.Stderr, "  [%d/%d] %s\n", done, total, key)
}

// loadScenario resolves -scenario's argument: a file path, preset:NAME,
// or preset:list. Returns nil with the exit code when nothing to run.
func loadScenario(arg string) ([]byte, int) {
	if name, ok := strings.CutPrefix(arg, "preset:"); ok {
		if name == "list" {
			for _, n := range scen.PresetNames() {
				fmt.Println(n)
			}
			return nil, 0
		}
		s, ok := scen.Preset(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "hornet-exp: unknown preset %q (preset:list to enumerate)\n", name)
			return nil, 2
		}
		b, err := scen.Encode(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hornet-exp: %v\n", err)
			return nil, 1
		}
		return b, 0
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hornet-exp: %v\n", err)
		return nil, 1
	}
	return b, 0
}
