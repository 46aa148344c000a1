package service

import (
	"bytes"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/workloads"
)

// mipsResumeRequest is a checkpoint-heavy application scenario: the
// shared-memory ping-pong over the MSI fabric on a 2x2 mesh, sized so a
// daemon autosaving every 500 cycles writes many checkpoints before the
// workload halts.
func mipsResumeRequest() SubmitRequest {
	rounds := 400
	if raceDetector {
		rounds = 150
	}
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 2, 2
	cfg.Memory = config.DefaultMemory()
	return SubmitRequest{
		Name: "mips-resume",
		Seed: 7,
		Mips: &MipsSpec{
			Workload: "shared-pingpong",
			Rounds:   rounds,
			Config:   cfg,
		},
	}
}

// TestMipsCheckpointResumeAfterRestart is the killed-daemon drill for
// the payload-bearing frontends: daemon A autosaves a running MIPS/mem
// job (core registers, RAM, caches, directories, in-flight coherence
// payloads), dies mid-run, and daemon B with the same checkpoint
// directory resumes the resubmitted scenario from the last snapshot —
// producing a document byte-identical to a never-interrupted run.
func TestMipsCheckpointResumeAfterRestart(t *testing.T) {
	ckptDir := t.TempDir()
	req := mipsResumeRequest()

	// Daemon A: run until at least one checkpoint exists, then die.
	srvA := mustServer(t, Options{MaxJobs: 1, Budget: 1, CheckpointDir: ckptDir, CheckpointEvery: 500})
	jA := submitDirect(t, srvA, req)
	deadline := time.Now().Add(60 * time.Second)
	for jA.Info().Checkpoints < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint written; job state %+v", jA.Info())
		}
		if jA.Info().Terminal() {
			t.Fatalf("job finished before a checkpoint could be observed; state %+v (shrink the autosave period or grow rounds)", jA.Info())
		}
		time.Sleep(time.Millisecond)
	}
	srvA.Close() // cancels the running job; the drain saves a final snapshot
	if got := jA.Info().State; got != StateCanceled {
		t.Fatalf("killed daemon's job state = %s, want %s", got, StateCanceled)
	}

	// Daemon B, same checkpoint directory: the resubmitted scenario must
	// resume mid-application, not re-execute from instruction zero.
	srvB := mustServer(t, Options{MaxJobs: 1, Budget: 1, CheckpointDir: ckptDir, CheckpointEvery: 500})
	defer srvB.Close()
	jB := submitDirect(t, srvB, req)
	infoB := waitDone(t, jB, 120*time.Second)
	if infoB.State != StateDone {
		t.Fatalf("resumed job state = %s (%s)", infoB.State, infoB.Error)
	}
	if infoB.ResumedRuns < 1 {
		t.Errorf("resumed job reports %d resumed runs, want >= 1", infoB.ResumedRuns)
	}
	resumedBytes, ok := jB.Result()
	if !ok {
		t.Fatal("resumed job has no result")
	}
	if st := srvB.Stats(); st.RunsResumed != 1 {
		t.Errorf("stats.RunsResumed = %d, want 1", st.RunsResumed)
	}

	// Reference: the same scenario, same checkpoint cadence, never
	// interrupted (fresh checkpoint directory).
	srvC := mustServer(t, Options{MaxJobs: 1, Budget: 1, CheckpointDir: t.TempDir(), CheckpointEvery: 500})
	defer srvC.Close()
	jC := submitDirect(t, srvC, req)
	infoC := waitDone(t, jC, 120*time.Second)
	if infoC.State != StateDone {
		t.Fatalf("reference job state = %s (%s)", infoC.State, infoC.Error)
	}
	refBytes, _ := jC.Result()
	if !bytes.Equal(resumedBytes, refBytes) {
		t.Errorf("resumed document differs from uninterrupted run:\nresumed: %s\nref:     %s",
			resumedBytes, refBytes)
	}
}

// TestMipsScenarioCachesByteIdentically: an application job's document
// enters the content-addressed result cache and a resubmission serves
// the identical bytes without re-simulating.
func TestMipsScenarioCachesByteIdentically(t *testing.T) {
	srv := mustServer(t, Options{MaxJobs: 1, Budget: 1})
	defer srv.Close()
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 2, 2
	req := SubmitRequest{
		Seed: 3,
		Mips: &MipsSpec{Workload: "pingpong", Rounds: 30, Config: cfg},
	}
	j1 := submitDirect(t, srv, req)
	if info := waitDone(t, j1, 60*time.Second); info.State != StateDone {
		t.Fatalf("job state = %s (%s)", info.State, info.Error)
	}
	b1, _ := j1.Result()

	j2 := submitDirect(t, srv, req)
	info2 := waitDone(t, j2, 60*time.Second)
	if !info2.CacheHit {
		t.Errorf("resubmission missed the cache: %+v", info2)
	}
	b2, _ := j2.Result()
	if !bytes.Equal(b1, b2) {
		t.Error("cached document differs from cold run")
	}
	if len(b1) == 0 {
		t.Fatal("empty document")
	}
}

// TestMipsScenarioValidation: malformed application submissions are
// rejected with structured 4xx errors, not accepted and failed later.
func TestMipsScenarioValidation(t *testing.T) {
	base := func() config.Config {
		cfg := config.Default()
		cfg.Topology.Width, cfg.Topology.Height = 2, 2
		return cfg
	}
	cases := []struct {
		name, field string
		mut         func(req *SubmitRequest)
	}{
		{"unknown-workload", "/mips/workload", func(r *SubmitRequest) { r.Mips.Workload = "doom" }},
		{"traffic-set", "/mips/config/traffic", func(r *SubmitRequest) {
			r.Mips.Config.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.1}}
		}},
		{"shared-without-memory", "/mips/config/memory", func(r *SubmitRequest) { r.Mips.Workload = "shared-pingpong" }},
		{"private-with-memory", "/mips/config/memory", func(r *SubmitRequest) { r.Mips.Config.Memory = config.DefaultMemory() }},
		{"cannon-wrong-grid", "/mips/config", func(r *SubmitRequest) { r.Mips.Workload = "cannon"; r.Mips.Q = 3 }},
		{"cannon-huge-block", "/mips/b", func(r *SubmitRequest) { r.Mips.Workload = "cannon"; r.Mips.B = 40_000 }},
		{"huge-b", "/mips/b", func(r *SubmitRequest) { r.Mips.Workload = "cannon"; r.Mips.B = 65 }},
		{"huge-q", "/mips/q", func(r *SubmitRequest) { r.Mips.Workload = "cannon"; r.Mips.Q = 65 }},
		{"huge-rounds", "/mips/rounds", func(r *SubmitRequest) { r.Mips.Rounds = 2_000_000 }},
		{"huge-max-cycles", "/mips/max_cycles", func(r *SubmitRequest) { r.Mips.MaxCycles = 1 << 62 }},
		{"reduction-zero-elems", "/mips/params/elems", func(r *SubmitRequest) {
			r.Mips.Workload, r.Mips.Rounds, r.Mips.Params = "reduction", 0, workloads.Params{"elems": 0}
		}},
		{"matmul-huge-n", "/mips/params/n", func(r *SubmitRequest) {
			r.Mips.Workload, r.Mips.Rounds, r.Mips.Params = "matmul-blocked", 0, workloads.Params{"n": 65}
		}},
		{"reduction-six-nodes", "/mips/config", func(r *SubmitRequest) {
			r.Mips.Workload, r.Mips.Rounds, r.Mips.Config.Topology.Width = "reduction", 0, 3
		}},
		{"mips-plus-config", "/mips", func(r *SubmitRequest) { c := base(); r.Config = &c }},
		{"share-warmup", "/share_warmup", func(r *SubmitRequest) { r.ShareWarmup = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := SubmitRequest{Mips: &MipsSpec{Workload: "pingpong", Rounds: 5, Config: base()}}
			tc.mut(&req)
			if _, apiErr := buildScenario(req); apiErr == nil {
				t.Errorf("submission accepted, want *APIError")
			} else if apiErr.Field != tc.field {
				t.Errorf("error points at %q, want %q (%s)", apiErr.Field, tc.field, apiErr.Message)
			}
		})
	}

	// Defaults are part of the identity: explicit defaults hash the same.
	a, apiErr := buildScenario(SubmitRequest{Mips: &MipsSpec{Workload: "pingpong", Config: base()}})
	if apiErr != nil {
		t.Fatalf("default spec rejected: %v", apiErr)
	}
	b, apiErr := buildScenario(SubmitRequest{Mips: &MipsSpec{
		Workload: "pingpong", Rounds: 100, Q: 2, B: 4, MaxCycles: 10_000_000, Config: base()}})
	if apiErr != nil {
		t.Fatalf("explicit-default spec rejected: %v", apiErr)
	}
	if a.hash != b.hash {
		t.Error("defaulted and explicit-default specs hash differently")
	}
	if a.taskKind != KindMips || !a.single || len(a.runs) != 1 || a.runs[0].mips == nil {
		t.Errorf("scenario shape wrong: %+v", a)
	}
}
