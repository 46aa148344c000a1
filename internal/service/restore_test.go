package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hornet/internal/service/journal"
)

// These tests drive the durable coordinator in process: a journaled
// daemon dies (Close tears the journal down BEFORE the job drain, so
// the drain's cancellations are never journaled — exactly the on-disk
// state a SIGKILL leaves), a second daemon replays the same directory,
// and the restored jobs must finish as if nothing happened. The e2e
// suite repeats the drill over real processes and a live worker fleet.

// submitDurable admits a request exactly as handleSubmit does on a
// journaled server: the state hook is armed before the job becomes
// visible, and the submit record lands before the scheduler can
// transition (and journal) anything.
func submitDurable(t *testing.T, srv *Server, req SubmitRequest) *job {
	t.Helper()
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		t.Fatalf("buildScenario: %v", apiErr)
	}
	j := newJob(srv.jobs.nextID(), req, sc, srv.sched.baseCtx, time.Now())
	if srv.jrnl != nil {
		j.onState = srv.journalState
	}
	srv.jobs.add(j)
	srv.journalSubmit(j)
	if apiErr := srv.sched.submit(j); apiErr != nil {
		t.Fatalf("submit: %v", apiErr)
	}
	return j
}

// mustServer builds a daemon through NewDurable and fails the test on an
// error.
func mustServer(t testing.TB, opts Options) *Server {
	t.Helper()
	srv, err := NewDurable(opts)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	return srv
}

// durableOpts is the shared daemon shape. It keeps the default worker
// TTL: a daemon without workers runs a restored job on its in-process
// worker at once, so no test needs a short lease to hide a wait.
func durableOpts(journalDir, ckptDir, cacheDir string) Options {
	return Options{
		MaxJobs:         1,
		Budget:          1,
		JournalDir:      journalDir,
		CheckpointDir:   ckptDir,
		CacheDir:        cacheDir,
		CheckpointEvery: 1_000,
	}
}

// TestJournalRestartResumesInFlightJob is the in-process crash drill:
// daemon A journals a submission, autosaves at least one checkpoint and
// dies mid-run; daemon B on the same journal directory must rebuild the
// job under its original ID, re-enqueue it, resume from the snapshot
// rather than cycle 0, and produce bytes identical to a never-
// interrupted run.
func TestJournalRestartResumesInFlightJob(t *testing.T) {
	analyzed := 60_000
	if raceDetector {
		analyzed = 20_000
	}
	jdir, ckptDir := t.TempDir(), t.TempDir()
	req := SubmitRequest{Name: "durable-resume", Config: resumeConfig(analyzed), Seed: 17}

	srvA, err := NewDurable(durableOpts(jdir, ckptDir, ""))
	if err != nil {
		t.Fatal(err)
	}
	jA := submitDurable(t, srvA, req)
	id := jA.Info().ID
	deadline := time.Now().Add(60 * time.Second)
	for jA.Info().Checkpoints < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint written; job %+v", jA.Info())
		}
		if jA.Info().Terminal() {
			t.Fatalf("job finished before a checkpoint could be observed; %+v", jA.Info())
		}
		time.Sleep(2 * time.Millisecond)
	}
	srvA.Close() // journal is closed before the drain: the log still says "running"

	srvB, err := NewDurable(durableOpts(jdir, ckptDir, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	if st := srvB.Stats(); st.JobsRestored != 1 {
		t.Fatalf("stats.JobsRestored = %d, want 1", st.JobsRestored)
	}
	jB, ok := srvB.jobs.get(id)
	if !ok {
		t.Fatalf("restarted daemon has no job %s", id)
	}
	infoB := waitDone(t, jB, 120*time.Second)
	if infoB.State != StateDone {
		t.Fatalf("restored job state = %s (%s)", infoB.State, infoB.Error)
	}
	if infoB.ResumedRuns < 1 {
		t.Errorf("restored job reports %d resumed runs, want >= 1", infoB.ResumedRuns)
	}
	if st := srvB.Stats(); !st.Journal.Enabled || st.Journal.Replayed < 1 {
		t.Errorf("journal stats after replay: %+v", st.Journal)
	}
	restoredBytes, ok := jB.Result()
	if !ok {
		t.Fatal("restored job has no result")
	}

	// Reference: same scenario, same autosave cadence, never interrupted.
	srvC := mustServer(t, Options{MaxJobs: 1, Budget: 1, CheckpointDir: t.TempDir(), CheckpointEvery: 1_000})
	defer srvC.Close()
	jC := submitDirect(t, srvC, req)
	infoC := waitDone(t, jC, 120*time.Second)
	if infoC.State != StateDone {
		t.Fatalf("reference job state = %s (%s)", infoC.State, infoC.Error)
	}
	refBytes, _ := jC.Result()
	if !bytes.Equal(restoredBytes, refBytes) {
		t.Errorf("restored document differs from uninterrupted run:\nrestored: %s\nref:      %s",
			restoredBytes, refBytes)
	}

	// Replay advanced the ID floor: fresh submissions never collide with
	// replayed jobs.
	if next := srvB.jobs.nextID(); next <= id {
		t.Errorf("post-replay ID %s does not follow replayed %s", next, id)
	}
}

// TestJournalRestartWithoutWorkersRunsAtOnce: a durable daemon with no
// workers, at the default worker TTL, runs a restored in-flight job at
// once on its in-process worker. Nothing may wait for a fleet that does
// not exist: a two-TTL rejoin grace once held every such job for 30 s.
func TestJournalRestartWithoutWorkersRunsAtOnce(t *testing.T) {
	jdir, ckptDir := t.TempDir(), t.TempDir()
	req := SubmitRequest{Name: "durable-prompt", Config: resumeConfig(20_000), Seed: 19}
	opts := durableOpts(jdir, ckptDir, "")
	if opts.WorkerTTL != 0 {
		t.Fatalf("WorkerTTL = %v; this test needs the default", opts.WorkerTTL)
	}

	srvA, err := NewDurable(opts)
	if err != nil {
		t.Fatal(err)
	}
	jA := submitDurable(t, srvA, req)
	id := jA.Info().ID
	for deadline := time.Now().Add(60 * time.Second); jA.Info().Checkpoints < 1; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) || jA.Info().Terminal() {
			t.Fatalf("no checkpoint observed before the job ended; job %+v", jA.Info())
		}
	}
	srvA.Close()

	start := time.Now()
	srvB, err := NewDurable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	jB, ok := srvB.jobs.get(id)
	if !ok {
		t.Fatalf("restarted daemon has no job %s", id)
	}
	info := waitDone(t, jB, 60*time.Second)
	elapsed := time.Since(start)
	if info.State != StateDone {
		t.Fatalf("restored job state = %s (%s)", info.State, info.Error)
	}
	if elapsed > 10*time.Second {
		t.Errorf("restart to done took %v, want < 10s: the restored job waited for a fleet", elapsed)
	}
	if info.Backend != "local" || info.ResumedRuns < 1 {
		t.Errorf("restored job ran on %q with %d resumed runs; want local, resumed", info.Backend, info.ResumedRuns)
	}
	if st := srvB.Stats(); st.FallbackJobs != 0 || st.Fleet.TasksDispatched != 0 {
		t.Errorf("stats: fallback_jobs %d, fleet %+v; the in-process worker is no fleet and no fallback",
			st.FallbackJobs, st.Fleet)
	}
}

// TestJournalRestartRestoresTerminalJob: a done job's record — state,
// progress counters, result document — survives a restart wholesale via
// the journal plus the on-disk result cache, with no re-execution.
func TestJournalRestartRestoresTerminalJob(t *testing.T) {
	jdir, cacheDir := t.TempDir(), t.TempDir()
	req := SubmitRequest{Name: "durable-done", Config: resumeConfig(1_000), Seed: 3}

	srvA, err := NewDurable(durableOpts(jdir, "", cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	jA := submitDurable(t, srvA, req)
	infoA := waitDone(t, jA, 120*time.Second)
	if infoA.State != StateDone {
		t.Fatalf("job state = %s (%s)", infoA.State, infoA.Error)
	}
	doneBytes, _ := jA.Result()
	srvA.Close()

	srvB, err := NewDurable(durableOpts(jdir, "", cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	jB, ok := srvB.jobs.get(infoA.ID)
	if !ok {
		t.Fatalf("restarted daemon has no job %s", infoA.ID)
	}
	infoB := jB.Info()
	if infoB.State != StateDone {
		t.Fatalf("restored job state = %s, want %s (no re-execution)", infoB.State, StateDone)
	}
	if infoB.RunsDone != infoA.RunsDone || !infoB.Finished.Equal(infoA.Finished) {
		t.Errorf("restored info drifted: %+v vs %+v", infoB, infoA)
	}
	restoredBytes, ok := jB.Result()
	if !ok {
		t.Fatal("restored done job has no result")
	}
	if !bytes.Equal(restoredBytes, doneBytes) {
		t.Error("restored result is not byte-identical to the original")
	}
}

// TestJournalCompactionRoundTrip: compaction rewrites the log as the
// minimal live-state stream, and a daemon replaying the compacted log
// reconstructs every record exactly as the uncompacted one would have.
func TestJournalCompactionRoundTrip(t *testing.T) {
	jdir, cacheDir := t.TempDir(), t.TempDir()
	srvA, err := NewDurable(durableOpts(jdir, "", cacheDir))
	if err != nil {
		t.Fatal(err)
	}

	type doneJob struct {
		id     string
		result []byte
	}
	var jobs []doneJob
	for seed := uint64(1); seed <= 3; seed++ {
		req := SubmitRequest{Name: fmt.Sprintf("compact-%d", seed),
			Config: resumeConfig(1_000), Seed: seed}
		j := submitDurable(t, srvA, req)
		info := waitDone(t, j, 120*time.Second)
		if info.State != StateDone {
			t.Fatalf("seed %d: state = %s (%s)", seed, info.State, info.Error)
		}
		b, _ := j.Result()
		jobs = append(jobs, doneJob{info.ID, b})
	}
	if err := srvA.jrnl.Compact(srvA.compactRecords); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if _, compactions, _, _ := srvA.jrnl.Stats(); compactions != 1 {
		t.Fatalf("compactions = %d, want 1", compactions)
	}
	srvA.Close()

	srvB, err := NewDurable(durableOpts(jdir, "", cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	st := srvB.Stats()
	// Compacted stream: one submit + one result record per done job.
	if st.Journal.Replayed != 2*len(jobs) {
		t.Errorf("replayed %d records from the compacted log, want %d", st.Journal.Replayed, 2*len(jobs))
	}
	for _, dj := range jobs {
		j, ok := srvB.jobs.get(dj.id)
		if !ok {
			t.Fatalf("compacted replay lost job %s", dj.id)
		}
		if got := j.Info().State; got != StateDone {
			t.Errorf("job %s restored as %s, want %s", dj.id, got, StateDone)
		}
		if b, ok := j.Result(); !ok || !bytes.Equal(b, dj.result) {
			t.Errorf("job %s result drifted across compaction+replay", dj.id)
		}
	}
}

// TestJournalReplayIgnoresShardStableRecord: a journal an older
// coordinator wrote for a job whose shards ran as cross-process members
// holds the members' task ID and a "stable" record naming their
// checkpoint set. It must still replay: the stable record is read and
// ignored, the member task is not expected back, the job re-runs as one
// task to the bytes of the same request without shards, and compaction
// writes no stable record. The log is written by hand, frame by frame, as
// that coordinator wrote it.
func TestJournalReplayIgnoresShardStableRecord(t *testing.T) {
	jdir := t.TempDir()
	req := SubmitRequest{Name: "legacy-sharded", Config: resumeConfig(2_000), Seed: 23, Shards: 2}
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	const id = "job-000001"
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	infoJSON, err := json.Marshal(JobInfo{ID: id, Name: sc.name, Kind: sc.surface, State: StateRunning,
		ConfigHash: sc.hash, Seed: sc.seed, RunsTotal: 1, Created: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	key := CheckpointKey(sc.name, sc.hash, sc.runs[0].key)
	records := []string{
		fmt.Sprintf(`{"t":"submit","job":%q,"request":%s,"info":%s}`, id, reqJSON, infoJSON),
		fmt.Sprintf(`{"t":"assign","job":%q,"task":"task-000003-s1","slots":1}`, id),
		fmt.Sprintf(`{"t":"stable","job":%q,"epoch":1,"cycle":1000,"keys":[%q,%q]}`, id, key+"-s0", key+"-s1"),
	}
	wal := []byte("HJRNL1\n\x01\x00") // magic, format version 1
	for _, r := range records {
		var frame [8]byte
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(r)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE([]byte(r)))
		wal = append(append(wal, frame[:]...), r...)
	}
	if err := os.WriteFile(filepath.Join(jdir, journal.FileName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := NewDurable(durableOpts(jdir, t.TempDir(), ""))
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.JobsRestored != 1 || st.Journal.Replayed != len(records) {
		t.Fatalf("restored %d jobs from %d records, want 1 from %d", st.JobsRestored, st.Journal.Replayed, len(records))
	}
	j, ok := srv.jobs.get(id)
	if !ok {
		t.Fatalf("replay lost job %s", id)
	}
	if j.restore.taskID != "" {
		t.Errorf("the restored job expects member task %q back", j.restore.taskID)
	}
	info := waitDone(t, j, 120*time.Second)
	if info.State != StateDone || info.Backend != "local" {
		t.Fatalf("restored job state = %s on %q (%s), want done on local", info.State, info.Backend, info.Error)
	}
	got, _ := j.Result()
	if err := srv.jrnl.Compact(srv.compactRecords); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	unsharded := req
	unsharded.Shards = 0
	want, _ := runToDoc(t, Options{MaxJobs: 1, Budget: 1}, unsharded)
	if !bytes.Equal(got, want) {
		t.Errorf("the replayed job's document differs from the request without shards:\n got:  %s\n want: %s", got, want)
	}
	jr, recs, err := journal.Open(jdir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	for _, r := range recs {
		if r.Type == "stable" {
			t.Errorf("compaction wrote a stable record: %+v", r)
		}
	}
}
