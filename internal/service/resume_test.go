package service

import (
	"bytes"
	"testing"
	"time"

	"hornet/internal/config"
)

// These tests drive the daemon's internals directly (buildScenario +
// scheduler), skipping the HTTP layer the e2e suite already covers, so
// restart/resume timing is deterministic and fast.

// submitDirect validates and enqueues a request exactly as handleSubmit
// does, returning the job handle.
func submitDirect(t *testing.T, srv *Server, req SubmitRequest) *job {
	t.Helper()
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		t.Fatalf("buildScenario: %v", apiErr)
	}
	j := newJob(srv.jobs.nextID(), req, sc, srv.sched.baseCtx, time.Now())
	srv.jobs.add(j)
	if apiErr := srv.sched.submit(j); apiErr != nil {
		t.Fatalf("submit: %v", apiErr)
	}
	return j
}

func waitDone(t *testing.T, j *job, timeout time.Duration) JobInfo {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s did not finish within %v (state %s)", j.Info().ID, timeout, j.Info().State)
	}
	return j.Info()
}

// resumeConfig is a checkpoint-heavy scenario: long measured window,
// no fast-forward, 4x4 mesh.
func resumeConfig(analyzed int) *config.Config {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.08}}
	cfg.WarmupCycles = 400
	cfg.AnalyzedCycles = analyzed
	return &cfg
}

// TestCheckpointResumeAfterRestart is the killed-daemon drill: daemon A
// autosaves a running job, dies (Close cancels it mid-simulation),
// daemon B with the same checkpoint directory receives the identical
// scenario and must resume from the last snapshot instead of cycle 0 —
// and produce byte-identical results to a never-interrupted run.
func TestCheckpointResumeAfterRestart(t *testing.T) {
	analyzed := 60_000
	if raceDetector {
		analyzed = 20_000
	}
	ckptDir := t.TempDir()
	req := SubmitRequest{Name: "resume-me", Config: resumeConfig(analyzed), Seed: 11}

	// Daemon A: run until at least one checkpoint exists, then die.
	srvA := mustServer(t, Options{MaxJobs: 1, Budget: 1, CheckpointDir: ckptDir, CheckpointEvery: 1_000})
	jA := submitDirect(t, srvA, req)
	deadline := time.Now().Add(60 * time.Second)
	for jA.Info().Checkpoints < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint written; job state %+v", jA.Info())
		}
		if jA.Info().Terminal() {
			t.Fatalf("job finished before a checkpoint could be observed; state %+v", jA.Info())
		}
		time.Sleep(2 * time.Millisecond)
	}
	srvA.Close() // cancels the running job; the drain saves a final snapshot
	if got := jA.Info().State; got != StateCanceled {
		t.Fatalf("killed daemon's job state = %s, want %s", got, StateCanceled)
	}

	// Daemon B, same checkpoint directory: the resubmitted scenario must
	// resume, not restart.
	srvB := mustServer(t, Options{MaxJobs: 1, Budget: 1, CheckpointDir: ckptDir, CheckpointEvery: 1_000})
	defer srvB.Close()
	jB := submitDirect(t, srvB, req)
	infoB := waitDone(t, jB, 120*time.Second)
	if infoB.State != StateDone {
		t.Fatalf("resumed job state = %s (%s)", infoB.State, infoB.Error)
	}
	if infoB.ResumedRuns != 1 {
		t.Errorf("resumed job reports %d resumed runs, want 1", infoB.ResumedRuns)
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
	srvC := mustServer(t, Options{MaxJobs: 1, Budget: 1, CheckpointDir: t.TempDir(), CheckpointEvery: 1_000})
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

// TestShareWarmupBatchWarmsOnce: a batch whose items differ only in the
// measured window simulates the shared warmup exactly once and forks
// the rest from the snapshot; output is deterministic across daemons.
func TestShareWarmupBatchWarmsOnce(t *testing.T) {
	batch := func() []BatchItem {
		var items []BatchItem
		for i, analyzed := range []int{1_000, 2_000, 3_000} {
			cfg := resumeConfig(analyzed)
			cfg.WarmupCycles = 2_000
			items = append(items, BatchItem{Key: "w" + string(rune('a'+i)), Config: *cfg})
		}
		return items
	}
	req := SubmitRequest{Name: "fork-many", Batch: batch(), Seed: 5, ShareWarmup: true}

	srv := mustServer(t, Options{MaxJobs: 1, Budget: 1})
	defer srv.Close()
	j := submitDirect(t, srv, req)
	info := waitDone(t, j, 120*time.Second)
	if info.State != StateDone {
		t.Fatalf("job state = %s (%s)", info.State, info.Error)
	}
	st := srv.Stats()
	if st.WarmupMisses != 1 {
		t.Errorf("warmup simulated %d times, want exactly 1", st.WarmupMisses)
	}
	if st.WarmupHits != 2 {
		t.Errorf("warmup snapshot hits = %d, want 2", st.WarmupHits)
	}
	got, _ := j.Result()

	// A different daemon (fresh warmup cache) must produce identical bytes.
	srv2 := mustServer(t, Options{MaxJobs: 2, Budget: 2})
	defer srv2.Close()
	j2 := submitDirect(t, srv2, req)
	if info := waitDone(t, j2, 120*time.Second); info.State != StateDone {
		t.Fatalf("second daemon job state = %s (%s)", info.State, info.Error)
	}
	got2, _ := j2.Result()
	if !bytes.Equal(got, got2) {
		t.Errorf("share_warmup documents differ across daemons:\n%s\n%s", got, got2)
	}

	// Identity forking: the same batch without share_warmup is a
	// different scenario (different seeding) and must hash differently.
	plain, apiErr := buildScenario(SubmitRequest{Name: "fork-many", Batch: batch(), Seed: 5})
	if apiErr != nil {
		t.Fatalf("buildScenario: %v", apiErr)
	}
	if plain.hash == j.sc.hash {
		t.Error("share_warmup did not fork the cache identity")
	}
}

// TestSingleFlightCoalescesConcurrentDuplicates: two identical
// submissions in flight at once run one simulation; the follower
// attaches to the leader and serves byte-identical results.
func TestSingleFlightCoalesces(t *testing.T) {
	analyzed := 50_000
	if raceDetector {
		analyzed = 15_000
	}
	srv := mustServer(t, Options{MaxJobs: 2, Budget: 2})
	defer srv.Close()
	req := SubmitRequest{Name: "dup", Config: resumeConfig(analyzed), Seed: 3}

	j1 := submitDirect(t, srv, req)
	deadline := time.Now().Add(60 * time.Second)
	for j1.Info().State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("leader never started: %+v", j1.Info())
		}
		time.Sleep(time.Millisecond)
	}
	j2 := submitDirect(t, srv, req)

	info1 := waitDone(t, j1, 120*time.Second)
	info2 := waitDone(t, j2, 120*time.Second)
	if info1.State != StateDone || info2.State != StateDone {
		t.Fatalf("states: %s / %s (%s %s)", info1.State, info2.State, info1.Error, info2.Error)
	}
	if info1.Coalesced {
		t.Error("leader job reports coalesced")
	}
	if !info2.Coalesced && !info2.CacheHit {
		t.Errorf("duplicate submission neither coalesced nor cache-hit: %+v", info2)
	}
	b1, _ := j1.Result()
	b2, _ := j2.Result()
	if !bytes.Equal(b1, b2) {
		t.Error("coalesced result differs from leader result")
	}
	if info2.Coalesced {
		if st := srv.Stats(); st.CoalescedJobs != 1 {
			t.Errorf("stats.CoalescedJobs = %d, want 1", st.CoalescedJobs)
		}
	}
}

// TestJobTTLExpiresFinishedRecords: finished job records vanish after
// the retention TTL; the store no longer returns them.
func TestJobTTLExpiresFinishedRecords(t *testing.T) {
	srv := mustServer(t, Options{MaxJobs: 1, Budget: 1, JobTTL: 60 * time.Millisecond})
	defer srv.Close()
	cfg := resumeConfig(200)
	cfg.WarmupCycles = 50
	j := submitDirect(t, srv, SubmitRequest{Name: "ephemeral", Config: cfg, Seed: 1})
	info := waitDone(t, j, 60*time.Second)
	if info.State != StateDone {
		t.Fatalf("job state = %s (%s)", info.State, info.Error)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := srv.jobs.get(info.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job record never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.Stats(); st.JobsExpired < 1 {
		t.Errorf("stats.JobsExpired = %d, want >= 1", st.JobsExpired)
	}
	// The result cache is retention-independent: a resubmission still
	// hits it byte-identically.
	j2 := submitDirect(t, srv, SubmitRequest{Name: "ephemeral", Config: cfg, Seed: 1})
	if info2 := waitDone(t, j2, 60*time.Second); !info2.CacheHit {
		t.Errorf("resubmission after record expiry missed the result cache: %+v", info2)
	}
}
