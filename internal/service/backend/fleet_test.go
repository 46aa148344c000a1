package backend

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// recordSink captures sink callbacks.
type recordSink struct {
	Discard
	mu         sync.Mutex
	resumed    int
	progress   int
	dispatched []map[string]string // fields of every "dispatched" note
}

func (r *recordSink) Progress(done, total int, key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.progress++
}
func (r *recordSink) Resumed(key string, cycle uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resumed++
}
func (r *recordSink) Note(event string, fields map[string]string) {
	if event != "dispatched" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dispatched = append(r.dispatched, fields)
}

// fallbacks counts the dispatch notes that mark a fallback.
func (r *recordSink) fallbacks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, f := range r.dispatched {
		if f["fallback"] != "" {
			n++
		}
	}
	return n
}

func newTestFleet(t *testing.T) *Fleet {
	t.Helper()
	f := NewFleet(FleetOptions{LeaseTTL: time.Minute})
	t.Cleanup(f.Close)
	return f
}

func task(name string, weight int) *Task {
	return &Task{Name: name, Hash: "feedface", Kind: "config", Weight: weight,
		Request: json.RawMessage(`{}`)}
}

func TestFleetRegisterValidation(t *testing.T) {
	f := newTestFleet(t)
	if _, err := f.Register(RegisterRequest{Capacity: 0}); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	resp, err := f.Register(RegisterRequest{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" || resp.LeaseTTL != time.Minute || resp.HeartbeatEvery != time.Minute/3 {
		t.Fatalf("register response %+v", resp)
	}
	st := f.Stats()
	if st.WorkersLive != 1 || st.FleetCapacity != 2 || st.WorkersJoined != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := f.Deregister(resp.ID); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().FleetCapacity; got != 0 {
		t.Fatalf("capacity after deregister = %d", got)
	}
	if err := f.Deregister("nobody"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("deregister unknown: %v", err)
	}
}

// TestFleetExecuteNoWorkers: a fleet with no worker keeps the task
// queued instead of failing it, and Close fails it.
func TestFleetExecuteNoWorkers(t *testing.T) {
	f := NewFleet(FleetOptions{LeaseTTL: time.Minute})
	done := make(chan error, 1)
	go func() {
		_, _, err := f.Execute(context.Background(), task("t", 1), &recordSink{})
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); f.Stats().TasksQueued != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("task never queued")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("Execute on an empty fleet returned %v; want the task queued", err)
	default:
	}
	f.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestFleetDispatchAndResult(t *testing.T) {
	f := newTestFleet(t)
	w, _ := f.Register(RegisterRequest{ID: "w1", Capacity: 2})

	type out struct {
		doc []byte
		err error
	}
	done := make(chan out, 1)
	go func() {
		doc, _, err := f.Execute(context.Background(), task("job", 5), &recordSink{})
		done <- out{doc, err}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, err := f.Poll(ctx, w.ID, 5*time.Second)
	if err != nil || a == nil {
		t.Fatalf("poll: %v, %v", a, err)
	}
	if a.Workers != 2 {
		t.Fatalf("weight 5 on capacity-2 worker granted %d slots, want clamp to 2", a.Workers)
	}
	if st := f.Stats(); st.FleetInUse != 2 || st.FleetPeak != 2 {
		t.Fatalf("lease accounting %+v", st)
	}
	if err := f.PushResult(w.ID, a.TaskID, ResultPush{Doc: []byte("doc"), RunErrs: 0}); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil || string(res.doc) != "doc" {
		t.Fatalf("execute returned %q, %v", res.doc, res.err)
	}
	st := f.Stats()
	if st.FleetInUse != 0 || st.TasksCompleted != 1 || st.TasksDispatched != 1 {
		t.Fatalf("post-completion stats %+v", st)
	}
	// A second result push for the same task is a stale duplicate.
	if err := f.PushResult(w.ID, a.TaskID, ResultPush{Doc: []byte("dup")}); !errors.Is(err, ErrGone) {
		t.Fatalf("duplicate result push: %v", err)
	}
}

func TestFleetExpiryRequeuesWithCheckpoints(t *testing.T) {
	f := newTestFleet(t)
	w1, _ := f.Register(RegisterRequest{ID: "w1", Capacity: 1})

	sink := &recordSink{}
	done := make(chan error, 1)
	go func() {
		_, _, err := f.Execute(context.Background(), task("job", 1), sink)
		done <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, err := f.Poll(ctx, w1.ID, 5*time.Second)
	if err != nil || a == nil {
		t.Fatalf("poll: %v, %v", a, err)
	}
	if len(a.Checkpoints) != 0 {
		t.Fatalf("first dispatch carries %d checkpoints", len(a.Checkpoints))
	}
	key := "job-feedface-job"
	if err := f.PushCheckpoint(w1.ID, a.TaskID, key, 4_000, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if err := f.PushEvent(w1.ID, a.TaskID, TaskEvent{Type: "checkpoint", Key: "job", Cycle: 4_000}); err != nil {
		t.Fatal(err)
	}

	// w2 joins; w1 "dies" (manual expiry keeps the test clock-free).
	w2, _ := f.Register(RegisterRequest{ID: "w2", Capacity: 1})
	f.mu.Lock()
	f.workers[w1.ID].lastSeen = time.Now().Add(-time.Hour)
	f.mu.Unlock()
	f.expire(time.Now().Add(-f.opts.LeaseTTL))

	st := f.Stats()
	if st.WorkersLost != 1 || st.TasksRequeued != 1 || st.FleetCapacity != 1 {
		t.Fatalf("post-expiry stats %+v", st)
	}
	a2, err := f.Poll(ctx, w2.ID, 5*time.Second)
	if err != nil || a2 == nil {
		t.Fatalf("survivor poll: %v, %v", a2, err)
	}
	if a2.TaskID != a.TaskID {
		t.Fatalf("survivor got task %s, want migrated %s", a2.TaskID, a.TaskID)
	}
	blob, ok := a2.Checkpoints[key]
	if !ok || string(blob.Data) != "blob" || blob.Cycle != 4_000 {
		t.Fatalf("migrated assignment checkpoints = %+v", a2.Checkpoints)
	}
	// The dead worker wakes up and pushes: it must learn the task moved.
	if err := f.PushEvent(w1.ID, a.TaskID, TaskEvent{Type: "progress"}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("stale worker push: %v", err)
	}
	if err := f.PushEvent(w2.ID, a2.TaskID, TaskEvent{Type: "resumed", Key: "job", Cycle: 4_000}); err != nil {
		t.Fatal(err)
	}
	if sink.resumed != 1 {
		t.Fatalf("sink.resumed = %d", sink.resumed)
	}
	if err := f.PushResult(w2.ID, a2.TaskID, ResultPush{Doc: []byte("doc")}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("execute: %v", err)
	}
}

// fakeBlobStore records persistence calls.
type fakeBlobStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

func (s *fakeBlobStore) Save(key string, blob []byte, cycle uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[key] = blob
	return nil
}

func (s *fakeBlobStore) Remove(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blobs, key)
}

// TestFleetPersistLifecycle: uploaded blobs reach the persistent tier,
// and both drop paths — the worker's end-of-run DropCheckpoint and task
// completion — clean it up, so a checkpointing coordinator never
// accretes stale blobs for completed runs.
func TestFleetPersistLifecycle(t *testing.T) {
	store := &fakeBlobStore{blobs: map[string][]byte{}}
	f := NewFleet(FleetOptions{LeaseTTL: time.Minute, Persist: store})
	t.Cleanup(f.Close)
	w, _ := f.Register(RegisterRequest{ID: "w1", Capacity: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Execute(context.Background(), task("job", 1), &recordSink{})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, err := f.Poll(ctx, w.ID, 5*time.Second)
	if err != nil || a == nil {
		t.Fatalf("poll: %v, %v", a, err)
	}
	const key = "job-feedface-job"
	if err := f.PushCheckpoint(w.ID, a.TaskID, key, 100, []byte("b1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.blobs[key]; !ok {
		t.Fatal("uploaded blob never reached the persistent tier")
	}
	if err := f.DropCheckpoint(w.ID, a.TaskID, key); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.blobs[key]; ok {
		t.Fatal("DropCheckpoint left the persisted blob behind")
	}
	// Second blob with no explicit drop: completion must clean it.
	if err := f.PushCheckpoint(w.ID, a.TaskID, key, 200, []byte("b2")); err != nil {
		t.Fatal(err)
	}
	if err := f.PushResult(w.ID, a.TaskID, ResultPush{Doc: []byte("doc")}); err != nil {
		t.Fatal(err)
	}
	<-done
	if _, ok := store.blobs[key]; ok {
		t.Fatal("task completion left the persisted blob behind")
	}
}

// localRecorder is an in-process worker that records its batches and
// answers every run with the document "local".
type localRecorder struct {
	mu      sync.Mutex
	batches [][]LocalRun
}

func (l *localRecorder) run(runs []LocalRun) {
	l.mu.Lock()
	l.batches = append(l.batches, runs)
	l.mu.Unlock()
	for _, r := range runs {
		r.Done([]byte("local"), 0, nil)
	}
}

func (l *localRecorder) runs() [][]LocalRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.batches
}

// TestFleetExpiryOfLastWorkerFailsOver: the task of the last
// remote worker, expired mid-run, goes to the in-process worker with the
// blobs the dead worker uploaded, marked as a fallback; the in-process
// run shows in no fleet statistic.
func TestFleetExpiryOfLastWorkerFailsOver(t *testing.T) {
	f := newTestFleet(t)
	local := &localRecorder{}
	f.RegisterLocal(local.run)
	w1, _ := f.Register(RegisterRequest{ID: "w1", Capacity: 1})
	type out struct {
		doc []byte
		err error
	}
	done := make(chan out, 1)
	sink := &recordSink{}
	go func() {
		doc, _, err := f.Execute(context.Background(), task("job", 1), sink)
		done <- out{doc, err}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, err := f.Poll(ctx, w1.ID, 5*time.Second)
	if err != nil || a == nil {
		t.Fatalf("poll: %v, %v", a, err)
	}
	if len(local.runs()) != 0 {
		t.Fatal("the in-process worker took a task while a remote worker was registered")
	}
	const key = "job-feedface-job"
	if err := f.PushCheckpoint(w1.ID, a.TaskID, key, 4_000, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	f.workers[w1.ID].lastSeen = time.Now().Add(-time.Hour)
	f.mu.Unlock()
	f.expire(time.Now().Add(-f.opts.LeaseTTL))
	res := <-done
	if res.err != nil || string(res.doc) != "local" {
		t.Fatalf("execute after fleet emptied = %q, %v; want the in-process document", res.doc, res.err)
	}
	batches := local.runs()
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("in-process batches = %d, want one run of one task", len(batches))
	}
	r := batches[0][0]
	if r.Peer != nil || r.Task.ID != a.TaskID {
		t.Errorf("in-process run = %+v; want the migrated task", r)
	}
	if n := sink.fallbacks(); n != 1 {
		t.Errorf("%d dispatches marked as a fallback, want 1", n)
	}
	if blob := r.Task.Checkpoints[key]; string(blob.Data) != "blob" || blob.Cycle != 4_000 {
		t.Errorf("in-process run checkpoints = %+v; want the dead worker's upload", r.Task.Checkpoints)
	}
	if st := f.Stats(); st.WorkersLive != 0 || st.TasksDispatched != 1 || st.TasksCompleted != 0 || st.FleetCapacity != 0 {
		t.Errorf("stats %+v; the in-process worker must count in none of them", st)
	}
}

// TestFleetShardedGroupAdmittedWhole: a sharded task the remote workers
// cannot hold all at once goes to the in-process worker as one batch of
// all its members, each with its end of the group; the root member's
// document is the result.
func TestFleetShardedGroupAdmittedWhole(t *testing.T) {
	f := newTestFleet(t)
	local := &localRecorder{}
	f.RegisterLocal(local.run)
	if _, err := f.Register(RegisterRequest{ID: "small", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	sharded := task("sharded", 1)
	sharded.Shards = 2
	sink := &recordSink{}
	if doc, _, err := f.Execute(context.Background(), sharded, sink); err != nil || string(doc) != "local" {
		t.Fatalf("sharded task = %q, %v; want the in-process document", doc, err)
	}
	batches := local.runs()
	if len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("in-process batches %v; want one batch of both members", batches)
	}
	for i, r := range batches[0] {
		if r.Peer == nil {
			t.Errorf("member %d: %+v; want a group peer", i, r)
		}
	}
	if n := sink.fallbacks(); n != 0 {
		t.Errorf("%d member dispatches marked as a fallback; no remote worker ever held one", n)
	}
	if batches[0][0].Shard == batches[0][1].Shard {
		t.Errorf("both members run shard %d", batches[0][0].Shard)
	}
	if st := f.Stats(); st.TasksDispatched != 0 || st.FleetInUse != 0 {
		t.Errorf("stats %+v; the remote worker must hold no member", st)
	}
}

// TestFleetPinnedTaskStaysInProcess: a pinned task goes to the
// in-process worker even with a remote worker polling, and an unpinned
// one to the remote worker.
func TestFleetPinnedTaskStaysInProcess(t *testing.T) {
	f := newTestFleet(t)
	local := &localRecorder{}
	f.RegisterLocal(local.run)
	w, _ := f.Register(RegisterRequest{ID: "w1", Capacity: 4})
	pinned := task("figure", 1)
	pinned.Pinned = true
	if doc, _, err := f.Execute(context.Background(), pinned, &recordSink{}); err != nil || string(doc) != "local" {
		t.Fatalf("pinned task = %q, %v; want the in-process document", doc, err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := f.Execute(context.Background(), task("config", 1), &recordSink{})
		done <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, err := f.Poll(ctx, w.ID, 5*time.Second)
	if err != nil || a == nil || a.Name != "config" {
		t.Fatalf("poll = %+v, %v; want the unpinned task", a, err)
	}
	if err := f.PushResult(w.ID, a.TaskID, ResultPush{Doc: []byte("doc")}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := len(local.runs()); n != 1 {
		t.Errorf("in-process batches = %d, want 1 (the pinned task)", n)
	}
}

func TestFleetCancelQueuedTask(t *testing.T) {
	f := newTestFleet(t)
	w, _ := f.Register(RegisterRequest{ID: "busy", Capacity: 1})
	_ = w

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := f.Execute(ctx, task("job", 1), &recordSink{})
		done <- err
	}()
	// The task is queued (nobody polls). Cancelling the job must
	// terminate Execute without a worker in the loop.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled queued execute: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled queued execute never returned")
	}
	if got := f.Stats().TasksQueued; got != 0 {
		t.Fatalf("queue still holds %d tasks after cancel", got)
	}
}

// TestFleetCancelAssignedTask: a cancelled assigned task is delivered
// to the worker via heartbeat, and its cancel acknowledgment completes
// the pending.
func TestFleetCancelAssignedTask(t *testing.T) {
	f := newTestFleet(t)
	w, _ := f.Register(RegisterRequest{ID: "w1", Capacity: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := f.Execute(ctx, task("job", 1), &recordSink{})
		done <- err
	}()
	pctx, pcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer pcancel()
	a, err := f.Poll(pctx, w.ID, 5*time.Second)
	if err != nil || a == nil {
		t.Fatalf("poll: %v, %v", a, err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hb, err := f.Heartbeat(w.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(hb.CancelTasks) == 1 && hb.CancelTasks[0] == a.TaskID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat never delivered the cancellation: %+v", hb)
		}
		time.Sleep(time.Millisecond)
	}
	// Worker-side pushes for a cancelled task report gone…
	if err := f.PushEvent(w.ID, a.TaskID, TaskEvent{Type: "progress"}); !errors.Is(err, ErrGone) {
		t.Fatalf("push on cancelled task: %v", err)
	}
	// …and the cancel acknowledgment resolves the pending.
	if err := f.PushResult(w.ID, a.TaskID, ResultPush{Canceled: true}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("execute: %v", err)
	}
	if st := f.Stats(); st.FleetInUse != 0 {
		t.Fatalf("slots leak after cancel: %+v", st)
	}
}

// claimRestored replays one restored task and registers worker w1
// claiming it, as a restarted coordinator sees a surviving worker rejoin.
func claimRestored(t *testing.T, f *Fleet, tid string) {
	t.Helper()
	f.ExpectReattach(tid, "job-000003", 1)
	resp, err := f.Register(RegisterRequest{ID: "w1", Capacity: 1,
		Running: []RunningTask{{TaskID: tid, Cycle: 500}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Adopted) != 1 || resp.Adopted[0] != tid {
		t.Fatalf("claim of %s not adopted: %+v", tid, resp)
	}
}

// TestReattachClaimBeforeExecute: the worker's claim arrives before the
// restored job reaches Execute. From the claim on, the run is the task's
// executor: its pushes — event, checkpoint, result — are accepted, and
// the later Execute returns the pushed document at once instead of
// binding the job to a run its worker was told to abandon.
func TestReattachClaimBeforeExecute(t *testing.T) {
	f := newTestFleet(t)
	const tid = "task-000007"
	claimRestored(t, f, tid)
	if err := f.PushEvent("w1", tid, TaskEvent{Type: "progress", Done: 0, Total: 1, Key: "job"}); err != nil {
		t.Fatalf("event push of the claimed run: %v", err)
	}
	if err := f.PushCheckpoint("w1", tid, "job-feedface-job", 1_000, []byte("blob")); err != nil {
		t.Fatalf("checkpoint push of the claimed run: %v", err)
	}
	if err := f.PushResult("w1", tid, ResultPush{Doc: []byte("doc")}); err != nil {
		t.Fatalf("result push of the claimed run: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	restored := task("job", 1)
	restored.ReattachID = tid
	sink := &recordSink{}
	doc, _, err := f.Execute(ctx, restored, sink)
	if err != nil || string(doc) != "doc" {
		t.Fatalf("Execute of the restored job = %q, %v; want the pushed document", doc, err)
	}
	if sink.resumed != 1 {
		t.Errorf("job saw %d resumed runs, want 1 (the reattached run)", sink.resumed)
	}
	if st := f.Stats(); st.TasksAdopted != 1 || st.TasksCompleted != 1 || st.FleetInUse != 0 {
		t.Errorf("stats %+v; want one adoption, one completion, no slot held", st)
	}
}

// TestReattachClaimBoundByExecute: Execute binds a claimed, still running
// run to the job — later pushes reach the job's sink — and a claim no
// Execute ever binds is cancelled at its deadline like any aborted task.
func TestReattachClaimBoundByExecute(t *testing.T) {
	f := newTestFleet(t)
	claimRestored(t, f, "task-000007")
	restored := task("job", 1)
	restored.ReattachID = "task-000007"
	sink := &recordSink{}
	done := make(chan error, 1)
	go func() {
		_, _, err := f.Execute(context.Background(), restored, sink)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		sink.mu.Lock()
		bound := sink.resumed == 1
		sink.mu.Unlock()
		if bound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Execute never bound the claimed run")
		}
	}
	if err := f.PushEvent("w1", "task-000007", TaskEvent{Type: "progress", Done: 1, Total: 1}); err != nil {
		t.Fatal(err)
	}
	if sink.progress != 1 {
		t.Errorf("job sink saw %d progress events after the bind, want 1", sink.progress)
	}
	if err := f.PushResult("w1", "task-000007", ResultPush{Doc: []byte("doc")}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// A second claim whose job never executes: past the deadline the
	// worker is told to cancel it, and its acknowledgement frees the slot.
	f.ExpectReattach("task-000008", "job-000004", 1)
	if _, err := f.Register(RegisterRequest{ID: "w1", Capacity: 1,
		Running: []RunningTask{{TaskID: "task-000008"}}}); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	f.expect["task-000008"].deadline = time.Now().Add(-time.Second)
	f.mu.Unlock()
	f.expire(time.Now().Add(-f.opts.LeaseTTL))
	hb, err := f.Heartbeat("w1")
	if err != nil || len(hb.CancelTasks) != 1 || hb.CancelTasks[0] != "task-000008" {
		t.Fatalf("heartbeat after the claim's deadline = %+v, %v; want it cancelled", hb, err)
	}
	if err := f.PushResult("w1", "task-000008", ResultPush{Canceled: true}); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.FleetInUse != 0 {
		t.Errorf("slots leak after the expired claim: %+v", st)
	}
}

// TestReattachClaimOrphanedBeforeExecute: a claimed run whose worker
// leaves before the restored job reaches Execute waits in the queue out
// of the in-process worker's reach — it has no job to report to and
// nothing to run — until Execute binds it. With no remote worker left,
// the in-process worker then runs it at once, from the blob the claimed
// run uploaded.
func TestReattachClaimOrphanedBeforeExecute(t *testing.T) {
	f := newTestFleet(t)
	local := &localRecorder{}
	f.RegisterLocal(local.run)
	const tid, key = "task-000007", "job-feedface-job"
	claimRestored(t, f, tid)
	if err := f.PushCheckpoint("w1", tid, key, 1_000, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if err := f.Deregister("w1"); err != nil {
		t.Fatal(err)
	}
	f.expire(time.Now().Add(-f.opts.LeaseTTL))
	if n := len(local.runs()); n != 0 {
		t.Fatalf("the in-process worker took %d batches before Execute bound the claimed run", n)
	}

	restored := task("job", 1)
	restored.ReattachID = tid
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if doc, _, err := f.Execute(ctx, restored, &recordSink{}); err != nil || string(doc) != "local" {
		t.Fatalf("Execute of the restored job = %q, %v; want the in-process document without a reattach hold", doc, err)
	}
	batches := local.runs()
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("in-process batches = %d, want one run of one task", len(batches))
	}
	if r := batches[0][0]; r.Task.ID != tid || string(r.Task.Checkpoints[key].Data) != "blob" {
		t.Errorf("in-process run = %+v; want the claimed task with its uploaded blob", r.Task)
	}
}
