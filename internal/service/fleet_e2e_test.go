package service_test

// The distributed-mode e2e suite: a real coordinator (httptest) driven
// through the public HTTP API, with in-process hornet-workers attached.
// It proves the PR 5 golden contract across process boundaries:
//
//   - the same job executed by the local backend and by a worker fleet
//     yields byte-identical Document JSON, and
//   - killing a worker mid-job migrates the job — via its uploaded
//     checkpoints — to a surviving worker, which resumes instead of
//     restarting (resumed_runs > 0) and still reproduces the
//     uninterrupted document byte-for-byte.
//
// The external test package is deliberate: the worker package imports
// service, so these tests can only exist outside the service package —
// which also forces them through the public API, exactly like real
// clients and workers.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/service"
	"hornet/internal/service/client"
	"hornet/internal/service/worker"
)

// fleetDaemon is one coordinator under test.
type fleetDaemon struct {
	srv  *service.Server
	http *httptest.Server
	c    *client.Client
}

func startFleetDaemon(t *testing.T, opts service.Options) *fleetDaemon {
	t.Helper()
	srv := mustServer(t, opts)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &fleetDaemon{srv: srv, http: hs, c: client.New(hs.URL)}
}

// startFleetWorker attaches one in-process worker to the daemon and
// returns a crash-stop kill switch (context cancel: no deregistration,
// no final pushes — exactly a kill -9).
func startFleetWorker(t *testing.T, d *fleetDaemon, id string) (kill func()) {
	t.Helper()
	return attachFleetWorker(t, d, worker.Options{ID: id, Capacity: 1})
}

// attachFleetWorker is startFleetWorker with the worker's options
// spelled out; Coordinator is filled in.
func attachFleetWorker(t *testing.T, d *fleetDaemon, opts worker.Options) (kill func()) {
	t.Helper()
	opts.Coordinator = d.http.URL
	ctx, cancel := context.WithCancel(context.Background())
	w := worker.New(opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return func() { cancel(); <-done }
}

func waitWorkers(t *testing.T, d *fleetDaemon, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for d.srv.Stats().Fleet.WorkersLive != n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d live workers: %+v", n, d.srv.Stats().Fleet)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fleetConfig is a small checkpoint-friendly scenario: 4x4 mesh,
// cycle-accurate, no fast-forward.
func fleetConfig(analyzed int) *config.Config {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.08}}
	cfg.WarmupCycles = 400
	cfg.AnalyzedCycles = analyzed
	return &cfg
}

// runToDone submits and waits, failing the test on a non-done state.
func runToDone(t *testing.T, d *fleetDaemon, req service.SubmitRequest, timeout time.Duration) (service.JobInfo, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	info, err := d.c.SubmitAndWait(ctx, req)
	if err != nil {
		t.Fatalf("submit+wait: %v", err)
	}
	if info.State != service.StateDone {
		t.Fatalf("job state = %s (%s)", info.State, info.Error)
	}
	_, raw, err := d.c.Result(ctx, info.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return info, raw
}

// TestFleetByteIdentityAcrossBackends: one daemon with no workers (the
// local backend) and one with a 2-worker fleet must produce
// byte-identical documents for the same config and batch scenarios, and
// one simulation split 2 ways across the fleet's workers must produce
// the single-engine document.
func TestFleetByteIdentityAcrossBackends(t *testing.T) {
	analyzed, sharded := 3_000, 1_500
	if fleetRaceDetector {
		analyzed, sharded = 1_500, 500
	}
	mkBatch := func() []service.BatchItem {
		var items []service.BatchItem
		for i := 0; i < 3; i++ {
			cfg := fleetConfig(analyzed + i*500)
			items = append(items, service.BatchItem{Key: fmt.Sprintf("item-%d", i), Config: *cfg})
		}
		return items
	}
	confReq := service.SubmitRequest{Name: "xbackend", Config: fleetConfig(analyzed), Seed: 7}
	batchReq := service.SubmitRequest{Name: "xbackend-batch", Batch: mkBatch(), Seed: 9}
	// The shard count is not part of a job's identity: the sharded
	// request's document is the single-engine document of singleReq.
	singleReq := service.SubmitRequest{Name: "xbackend-sharded", Config: fleetConfig(sharded), Seed: 13}
	shardReq := singleReq
	shardReq.Shards = 2

	local := startFleetDaemon(t, service.Options{MaxJobs: 1, Budget: 1})
	localConfInfo, localConf := runToDone(t, local, confReq, 2*time.Minute)
	_, localBatch := runToDone(t, local, batchReq, 4*time.Minute)
	_, localSingle := runToDone(t, local, singleReq, 2*time.Minute)
	if localConfInfo.Backend != "local" {
		t.Errorf("workerless daemon ran job on backend %q, want local", localConfInfo.Backend)
	}

	fleet := startFleetDaemon(t, service.Options{MaxJobs: 2, Budget: 2, WorkerTTL: 30 * time.Second})
	startFleetWorker(t, fleet, "w1")
	startFleetWorker(t, fleet, "w2")
	waitWorkers(t, fleet, 2)

	fleetConfInfo, fleetConf := runToDone(t, fleet, confReq, 2*time.Minute)
	_, fleetBatch := runToDone(t, fleet, batchReq, 4*time.Minute)
	if fleetConfInfo.Backend != "fleet" {
		t.Errorf("fleet daemon ran job on backend %q, want fleet", fleetConfInfo.Backend)
	}
	if !bytes.Equal(localConf, fleetConf) {
		t.Errorf("config documents differ across backends:\nlocal: %s\nfleet: %s", localConf, fleetConf)
	}
	if !bytes.Equal(localBatch, fleetBatch) {
		t.Errorf("batch documents differ across backends:\nlocal: %s\nfleet: %s", localBatch, fleetBatch)
	}
	shardInfo, fleetSharded := runToDone(t, fleet, shardReq, 4*time.Minute)
	if shardInfo.Backend != "fleet" {
		t.Errorf("fleet daemon ran sharded job on backend %q, want fleet", shardInfo.Backend)
	}
	if !bytes.Equal(localSingle, fleetSharded) {
		t.Errorf("fleet-sharded document differs from single-engine document:\nsingle: %s\nsharded: %s", localSingle, fleetSharded)
	}

	st := fleet.srv.Stats()
	if st.RemoteJobs < 3 {
		t.Errorf("stats.RemoteJobs = %d, want >= 3", st.RemoteJobs)
	}
	if st.Fleet.FleetPeak > st.Fleet.FleetCapacity {
		t.Errorf("fleet peak %d exceeds capacity %d", st.Fleet.FleetPeak, st.Fleet.FleetCapacity)
	}
	// config, batch and the sharded job's root member.
	if st.Fleet.TasksCompleted < 3 {
		t.Errorf("stats.Fleet.TasksCompleted = %d, want >= 3", st.Fleet.TasksCompleted)
	}

	// A resubmission is served byte-identically from the coordinator's
	// cache — remote execution feeds the same content-addressed store.
	again, raw := runToDone(t, fleet, confReq, time.Minute)
	if !again.CacheHit {
		t.Errorf("resubmission after fleet run missed the cache: %+v", again)
	}
	if !bytes.Equal(raw, localConf) {
		t.Error("cached fleet document differs from local document")
	}
}

// TestFleetMigrationOnWorkerDeath is the kill-drill: two workers, one
// job; the worker executing it is crash-stopped mid-run, and the job
// must migrate to the survivor via its uploaded checkpoints, resume
// (resumed_runs > 0), and still produce the uninterrupted document
// byte-for-byte.
func TestFleetMigrationOnWorkerDeath(t *testing.T) {
	analyzed, every, ttl := 60_000, 1_000, 2*time.Second
	if fleetRaceDetector {
		analyzed, every, ttl = 25_000, 500, 4*time.Second
	}
	req := service.SubmitRequest{Name: "migrate-me", Config: fleetConfig(analyzed), Seed: 11}

	d := startFleetDaemon(t, service.Options{
		MaxJobs: 1, Budget: 1,
		CheckpointEvery: uint64(every),
		WorkerTTL:       ttl,
	})
	kills := map[string]func(){
		"w1": startFleetWorker(t, d, "w1"),
		"w2": startFleetWorker(t, d, "w2"),
	}
	waitWorkers(t, d, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	info, err := d.c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Wait until the assigned worker has made checkpointed progress,
	// then find which worker holds the task and crash-stop it.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		ji, err := d.c.Job(ctx, info.ID)
		if err != nil {
			t.Fatalf("job poll: %v", err)
		}
		if ji.Terminal() {
			t.Fatalf("job finished before the kill could happen; state %+v (grow the analyzed window)", ji)
		}
		if ji.Checkpoints >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint observed; job %+v", ji)
		}
		time.Sleep(5 * time.Millisecond)
	}
	workers, err := d.c.Workers(ctx)
	if err != nil {
		t.Fatalf("workers: %v", err)
	}
	victim := ""
	for _, wi := range workers {
		if len(wi.Tasks) > 0 {
			victim = wi.ID
		}
	}
	if victim == "" {
		t.Fatal("no worker holds the task despite checkpoint progress")
	}
	t.Logf("killing %s mid-job", victim)
	kills[victim]()

	final, err := d.c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != service.StateDone {
		t.Fatalf("migrated job state = %s (%s)", final.State, final.Error)
	}
	if final.ResumedRuns < 1 {
		t.Errorf("migrated job reports %d resumed runs, want >= 1", final.ResumedRuns)
	}
	_, migrated, err := d.c.Result(ctx, info.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}

	st := d.srv.Stats()
	if st.Fleet.TasksRequeued < 1 {
		t.Errorf("stats.Fleet.TasksRequeued = %d, want >= 1", st.Fleet.TasksRequeued)
	}
	if st.Fleet.WorkersLost < 1 {
		t.Errorf("stats.Fleet.WorkersLost = %d, want >= 1", st.Fleet.WorkersLost)
	}

	// Reference: the same scenario on a workerless daemon with the same
	// checkpoint cadence, never interrupted.
	ref := startFleetDaemon(t, service.Options{MaxJobs: 1, Budget: 1})
	_, refBytes := runToDone(t, ref, req, 5*time.Minute)
	if !bytes.Equal(migrated, refBytes) {
		t.Errorf("migrated document differs from uninterrupted local run:\nmigrated: %s\nref:      %s",
			migrated, refBytes)
	}
}

// TestFleetFallbackToLocal: when the only worker dies and no survivor
// exists, the fleet hands the job back and the local backend finishes
// it — resuming from the blobs the dead worker uploaded.
func TestFleetFallbackToLocal(t *testing.T) {
	analyzed, every, ttl := 40_000, 500, 2*time.Second
	if fleetRaceDetector {
		analyzed, every, ttl = 15_000, 250, 4*time.Second
	}
	req := service.SubmitRequest{Name: "fallback", Config: fleetConfig(analyzed), Seed: 13}

	d := startFleetDaemon(t, service.Options{
		MaxJobs: 1, Budget: 1,
		CheckpointEvery: uint64(every),
		WorkerTTL:       ttl,
	})
	kill := startFleetWorker(t, d, "solo")
	waitWorkers(t, d, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	info, err := d.c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		ji, err := d.c.Job(ctx, info.ID)
		if err != nil {
			t.Fatalf("job poll: %v", err)
		}
		if ji.Terminal() {
			t.Fatalf("job finished before the kill; state %+v", ji)
		}
		if ji.Checkpoints >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint observed; job %+v", ji)
		}
		time.Sleep(5 * time.Millisecond)
	}
	kill()

	final, err := d.c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != service.StateDone {
		t.Fatalf("fallback job state = %s (%s)", final.State, final.Error)
	}
	if final.Backend != "local" {
		t.Errorf("fallback job backend = %q, want local", final.Backend)
	}
	if final.ResumedRuns < 1 {
		t.Errorf("fallback job resumed %d runs, want >= 1 (checkpoint blobs should have seeded the local store)", final.ResumedRuns)
	}
	if st := d.srv.Stats(); st.FallbackJobs != 1 {
		t.Errorf("stats.FallbackJobs = %d, want 1", st.FallbackJobs)
	}

	_, got, err := d.c.Result(ctx, info.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	ref := startFleetDaemon(t, service.Options{MaxJobs: 1, Budget: 1})
	_, refBytes := runToDone(t, ref, req, 5*time.Minute)
	if !bytes.Equal(got, refBytes) {
		t.Errorf("fallback document differs from uninterrupted run:\ngot: %s\nref: %s", got, refBytes)
	}
}
