package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"hornet/internal/config"
	"hornet/internal/obs"
	"hornet/internal/service/backend"
	"hornet/internal/sim"
)

// These tests pin the single run driver (execEnv.run): every kind of
// run — synthetic or application workload, plain, resumed or one member
// of a group — goes through it, so each must produce the same document.

// resumedSink and checkpointSink hand a test the one event it watches.
type resumedSink struct {
	backend.Discard
	fn func(key string, cycle uint64)
}

func (s resumedSink) Resumed(key string, cycle uint64) { s.fn(key, cycle) }

type checkpointSink struct {
	backend.Discard
	fn func(key string, cycle uint64)
}

func (s checkpointSink) Checkpoint(key string, cycle uint64) { s.fn(key, cycle) }

// presetRequest loads one examples/scenarios preset as a submission,
// after edit has rewritten the decoded document.
func presetRequest(t *testing.T, name string, edit func(doc map[string]any)) SubmitRequest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return SubmitRequest{Scenario: b}
}

// docRun returns the document's run plan, created if absent.
func docRun(doc map[string]any) map[string]any {
	run, _ := doc["run"].(map[string]any)
	if run == nil {
		run = map[string]any{}
		doc["run"] = run
	}
	return run
}

// TestPresetMatrixOneDriver is the first slice of ROADMAP 1b's preset
// harness: every single-run preset of the gallery, plus one point of
// each sweeping preset (sweep stripped, traffic windows shrunk), run
// plainly, cancelled at its first autosave and resumed, and with shards 2
// on two engine workers. All three must emit the same bytes.
func TestPresetMatrixOneDriver(t *testing.T) {
	onePoint := func(doc map[string]any) {
		delete(doc, "sweep")
		run := docRun(doc)
		run["warmup_cycles"], run["analyzed_cycles"] = 300, 3000
	}
	asIs := func(map[string]any) {}
	cases := []struct {
		preset string
		edit   func(map[string]any)
		every  uint64 // autosave cadence of the resumed leg
		large  bool   // skipped under -short
	}{
		{"shared-pingpong-msi", asIs, 500, false},
		{"reduction-tree-4x4", asIs, 200, false},
		{"matmul-ring-8", asIs, 200, false},
		{"pingpong-8x8", asIs, 500, true},
		{"uniform-load-8x8", onePoint, 500, true},
		{"routing-vcs-8x8", onePoint, 500, true},
	}
	for _, tc := range cases {
		t.Run(tc.preset, func(t *testing.T) {
			if tc.large && testing.Short() {
				t.Skip("8x8 preset; -short runs the 4x4 and ring presets")
			}
			req := presetRequest(t, tc.preset, tc.edit)
			ctx := context.Background()

			plain, err := Execute(ctx, req, ExecOptions{Workers: 1})
			if err != nil {
				t.Fatalf("plain: %v", err)
			}
			if plain.RunErrs != 0 {
				t.Fatalf("plain document records %d run errors:\n%s", plain.RunErrs, plain.Doc)
			}

			// Cancelled at the first autosave, then resumed from the store.
			store := NewMemCheckpointStore()
			cctx, cancel := context.WithCancel(ctx)
			_, err = Execute(cctx, req, ExecOptions{Workers: 1, Checkpoints: store, CheckpointEvery: tc.every,
				Sink: checkpointSink{fn: func(string, uint64) { cancel() }}})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("first leg finished before its first autosave (err=%v); shrink every", err)
			}
			var resumedRuns atomic.Int32
			resumed, err := Execute(ctx, req, ExecOptions{Workers: 1, Checkpoints: store, CheckpointEvery: tc.every,
				Sink: resumedSink{fn: func(string, uint64) { resumedRuns.Add(1) }}})
			if err != nil {
				t.Fatalf("resumed: %v", err)
			}
			if resumedRuns.Load() == 0 {
				t.Error("second leg did not resume from the checkpoint")
			}
			if !bytes.Equal(resumed.Doc, plain.Doc) {
				t.Errorf("resumed document differs from the plain run:\n plain:   %s\n resumed: %s", plain.Doc, resumed.Doc)
			}

			// Shards 2: one engine on two workers.
			shardedReq := presetRequest(t, tc.preset, func(doc map[string]any) {
				tc.edit(doc)
				docRun(doc)["shards"] = 2
			})
			sharded := executeSharded(t, shardedReq, ExecOptions{})
			if sharded.Hash != plain.Hash {
				t.Errorf("sharded request hashed %s, plain %s", sharded.Hash, plain.Hash)
			}
			if !bytes.Equal(sharded.Doc, plain.Doc) {
				t.Errorf("sharded document differs from the plain run:\n plain:   %s\n sharded: %s", plain.Doc, sharded.Doc)
			}
		})
	}
}

// TestBidirectionalUsesEveryEngineWorker: a machine with bidirectional
// links runs on every engine worker the budget grants, and its document —
// which may enter the content-addressed cache — is byte-identical to the
// one-worker run's.
func TestBidirectionalUsesEveryEngineWorker(t *testing.T) {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Router.Bidirectional = true
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.10}}
	cfg.WarmupCycles, cfg.AnalyzedCycles = 200, 2000
	req := SubmitRequest{Name: "bidir", Config: &cfg, Seed: 3, Workers: 4}

	probe := obs.NewSimProbe()
	wide, err := Execute(context.Background(), req, ExecOptions{Workers: 4, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(probe.Snapshot().Partitions); n != 4 {
		t.Errorf("bidirectional machine ran on %d engine partitions, want 4", n)
	}
	narrow, err := Execute(context.Background(), req, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wide.Doc, narrow.Doc) {
		t.Errorf("Workers: 4 document differs from Workers: 1:\n 4: %s\n 1: %s", wide.Doc, narrow.Doc)
	}
}

// TestRestoresParentFormatCheckpointMeta is the mixed-version guard: a
// checkpoint whose serve-meta section holds the literal JSON earlier
// executors wrote (field names, phase strings) under the store key they
// used must resume, and finish with the uninterrupted run's bytes.
func TestRestoresParentFormatCheckpointMeta(t *testing.T) {
	req := SubmitRequest{Name: "old-meta", Config: resumeConfig(3_000), Seed: 11}
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	spec := sc.runs[0]
	seed := sim.DeriveSeed(sc.seed, spec.key)
	m := lower(spec, 1, seed)
	// What an executor autosaving every 1000 cycles holds at its first
	// measured-phase boundary.
	sys, err := m.build()
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(uint64(req.Config.WarmupCycles), nil)
	sys.ResetStats()
	sys.RunUntil(1_000, nil)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	meta := `{"name":"old-meta","hash":"` + sc.hash + `","key":"old-meta","seed":` +
		strconv.FormatUint(seed, 10) + `,"phase":"measured","done":1000,"exec":1000,"skip":0}`
	snap.Section("serve-meta").Bytes([]byte(meta))
	blob, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemCheckpointStore()
	if err := store.Save("old-meta-"+sc.hash+"-old-meta", blob, sys.Clock()); err != nil {
		t.Fatal(err)
	}

	var resumedAt atomic.Uint64
	resumed, err := Execute(context.Background(), req, ExecOptions{Workers: 1, Checkpoints: store, CheckpointEvery: 1_000,
		Sink: resumedSink{fn: func(_ string, cycle uint64) { resumedAt.Store(cycle) }}})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(req.Config.WarmupCycles) + 1_000; resumedAt.Load() != want {
		t.Fatalf("resumed at cycle %d, want %d (blob rejected?)", resumedAt.Load(), want)
	}
	plain, err := Execute(context.Background(), req, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed.Doc, plain.Doc) {
		t.Errorf("document resumed from a parent-format checkpoint differs:\n plain:   %s\n resumed: %s", plain.Doc, resumed.Doc)
	}
}

// TestExecuteKeepsTheFieldPointer: Execute's rejection wraps the whole
// *APIError, so hornet-exp and workers report the pointer too.
func TestExecuteKeepsTheFieldPointer(t *testing.T) {
	_, err := Execute(context.Background(), SubmitRequest{Config: shardConfig(), Shards: 99}, ExecOptions{Workers: 1})
	var apiErr *APIError
	if !errors.Is(err, ErrInvalidRequest) || !errors.As(err, &apiErr) || apiErr.Field != "/shards" {
		t.Fatalf("err = %v; want ErrInvalidRequest carrying an *APIError with field /shards", err)
	}
}
