package service_test

// Placement through the one dispatch path: which worker class runs a
// task, and what happens to a task whose remote worker leaves. A fake
// worker speaks the fleet protocol by hand over HTTP (as the wedge in
// TestStallWatchdogTripsOnWedgedExecutor does), so the test decides
// exactly when it polls, goes silent or leaves.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hornet/internal/service"
	"hornet/internal/service/backend"
	"hornet/internal/service/client"
)

// fakeWorker is a registered remote worker that never runs what it
// takes.
type fakeWorker struct {
	t    *testing.T
	base string
	id   string
}

func registerFakeWorker(t *testing.T, d *fleetDaemon, id string) fakeWorker {
	t.Helper()
	w := fakeWorker{t: t, base: d.http.URL, id: id}
	if code := w.call(http.MethodPost, "/api/v1/workers", backend.RegisterRequest{ID: id, Capacity: 1}, nil); code != http.StatusOK {
		t.Fatalf("register %s: HTTP %d", id, code)
	}
	return w
}

func (w fakeWorker) call(method, path string, body, out any) int {
	w.t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		w.t.Fatal(err)
	}
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(b))
	if err != nil {
		w.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			w.t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// poll is one long-poll of at most wait; nil means nothing was assigned.
func (w fakeWorker) poll(wait time.Duration) *backend.Assignment {
	w.t.Helper()
	var a backend.Assignment
	switch code := w.call(http.MethodPost, "/api/v1/workers/"+w.id+"/poll?wait="+wait.String(), struct{}{}, &a); code {
	case http.StatusOK:
		return &a
	case http.StatusNoContent:
		return nil
	default:
		w.t.Fatalf("%s poll: HTTP %d", w.id, code)
		return nil
	}
}

// take polls until the worker is assigned a task.
func (w fakeWorker) take() *backend.Assignment {
	w.t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if a := w.poll(50 * time.Millisecond); a != nil {
			return a
		}
	}
	w.t.Fatalf("%s was never assigned a task", w.id)
	return nil
}

func (w fakeWorker) deregister() {
	w.t.Helper()
	if code := w.call(http.MethodDelete, "/api/v1/workers/"+w.id, nil, nil); code != http.StatusOK && code != http.StatusNoContent {
		w.t.Fatalf("deregister %s: HTTP %d", w.id, code)
	}
}

// dispatches counts the job's dispatch instants per worker class.
func dispatches(t *testing.T, c *client.Client, id string) map[string]int {
	t.Helper()
	trace, _, err := c.Trace(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Name == "dispatched" && ev.Phase == "i" {
			b, _ := ev.Args["backend"].(string)
			n[b]++
		}
	}
	return n
}

// A figure is pinned to this host: its serial timing columns measure
// the daemon's own CPUs. With a live remote worker polling the whole
// time, the figure still runs in-process and the worker is never
// assigned it.
func TestFigureStaysOnThisHost(t *testing.T) {
	if testing.Short() && raceEnabled {
		t.Skip("figure job under -short -race: sim too slow on 1 CPU")
	}
	d := startFleetDaemon(t, service.Options{MaxJobs: 1, Budget: 2, WorkerTTL: time.Minute})
	srv, c := d.srv, d.c
	w := registerFakeWorker(t, d, "remote")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	info, err := c.Submit(ctx, service.SubmitRequest{Figure: "t1", Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if a := w.poll(20 * time.Millisecond); a != nil {
			t.Fatalf("the remote worker was assigned %s of the figure job", a.TaskID)
		}
		ji, err := c.Job(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ji.Terminal() {
			break
		}
	}
	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || final.Backend != "local" {
		t.Fatalf("figure job: state %s (%s), backend %q; want done, local", final.State, final.Error, final.Backend)
	}
	if st := srv.Stats(); st.Fleet.WorkersLive != 1 || st.Fleet.TasksDispatched != 0 || st.RemoteJobs != 0 || st.FallbackJobs != 0 {
		t.Errorf("stats: remote %d, fallback %d, fleet %+v; want one idle live worker and nothing dispatched to it",
			st.RemoteJobs, st.FallbackJobs, st.Fleet)
	}
}

// A task whose remote worker leaves runs exactly once on the in-process
// worker, counts as the one fallback, and still produces the workerless
// daemon's document: whether it was queued behind the worker, which
// deregisters, or running on it when its lease expired.
func TestHandoverToInProcessRunsOnce(t *testing.T) {
	req := service.SubmitRequest{Name: "handover", Config: tinyConfig(), Seed: 29}
	refInfo, refDoc := runToDone(t, startFleetDaemon(t, service.Options{MaxJobs: 1, Budget: 1}), req, 2*time.Minute)
	if refInfo.Backend != "local" {
		t.Fatalf("workerless reference ran on %q", refInfo.Backend)
	}

	check := func(t *testing.T, d *fleetDaemon, id string, wantFleet int) {
		t.Helper()
		srv, c := d.srv, d.c
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		final, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != service.StateDone || final.Backend != "local" {
			t.Fatalf("handed-over job: state %s (%s), backend %q; want done, local", final.State, final.Error, final.Backend)
		}
		if n := dispatches(t, c, id); n["local"] != 1 || n["fleet"] != wantFleet {
			t.Errorf("dispatches %v; want exactly one in-process run after %d remote", n, wantFleet)
		}
		if st := srv.Stats(); st.FallbackJobs != 1 || st.RemoteJobs != 0 {
			t.Errorf("stats: fallback %d, remote %d; want 1, 0", st.FallbackJobs, st.RemoteJobs)
		}
		_, doc, err := c.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, refDoc) {
			t.Errorf("handed-over document differs from the workerless run:\ngot: %s\nref: %s", doc, refDoc)
		}
	}

	t.Run("queued behind a worker that deregisters", func(t *testing.T) {
		d := startFleetDaemon(t, service.Options{MaxJobs: 2, Budget: 1, WorkerTTL: time.Minute})
		srv, c := d.srv, d.c
		w := registerFakeWorker(t, d, "busy")
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		blocker, err := c.Submit(ctx, service.SubmitRequest{Name: "blocker", Config: tinyConfig(), Seed: 30})
		if err != nil {
			t.Fatal(err)
		}
		w.take()
		info, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); srv.Stats().Fleet.TasksQueued != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the job never queued behind the busy worker: %+v", srv.Stats().Fleet)
			}
		}
		// The blocker is cancelled in place (the worker never acknowledges),
		// so only the queued job is handed over when the worker leaves.
		if _, err := c.Cancel(ctx, blocker.ID); err != nil {
			t.Fatal(err)
		}
		w.deregister()
		check(t, d, info.ID, 0)
		if b, err := c.Wait(ctx, blocker.ID); err != nil || b.State != service.StateCanceled {
			t.Errorf("blocker: %+v, %v; want canceled", b, err)
		}
	})

	t.Run("running when its lease expires", func(t *testing.T) {
		d := startFleetDaemon(t, service.Options{MaxJobs: 1, Budget: 1, WorkerTTL: time.Second})
		w := registerFakeWorker(t, d, "doomed")
		info, err := d.c.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		w.take() // and then silence: no heartbeat, no push
		check(t, d, info.ID, 1)
		if st := d.srv.Stats(); st.Fleet.WorkersLost != 1 || st.Fleet.TasksRequeued != 1 {
			t.Errorf("fleet %+v; want the worker lost and its task requeued once", st.Fleet)
		}
	})
}

// A durable restart whose pre-crash worker re-registers and claims every
// restored job — more of them than the daemon runs at once, so most
// claims arrive before their job reaches Execute — and then leaves
// before those jobs run. Every job still finishes on the in-process
// worker, as one fallback each, and none waits out a reattach hold at
// the default worker TTL.
func TestRestartClaimsOrphanedBeforeExecute(t *testing.T) {
	jdir := t.TempDir()
	durable := func(opts service.Options) *fleetDaemon {
		t.Helper()
		opts.JournalDir = jdir
		srv, err := service.NewDurable(opts)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		return &fleetDaemon{srv: srv, http: hs, c: client.New(hs.URL)}
	}
	register := func(d *fleetDaemon, running []backend.RunningTask) (fakeWorker, backend.RegisterResponse) {
		t.Helper()
		w := fakeWorker{t: t, base: d.http.URL, id: "pre"}
		var resp backend.RegisterResponse
		if code := w.call(http.MethodPost, "/api/v1/workers",
			backend.RegisterRequest{ID: w.id, Capacity: 3, Running: running}, &resp); code != http.StatusOK {
			t.Fatalf("register: HTTP %d", code)
		}
		return w, resp
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Daemon A hands three jobs to one remote worker and dies: its
	// journal still says each is assigned.
	a := durable(service.Options{MaxJobs: 3, Budget: 1, WorkerTTL: time.Minute})
	pre, _ := register(a, nil)
	var ids []string
	var running []backend.RunningTask
	for seed := uint64(41); seed <= 43; seed++ {
		info, err := a.c.Submit(ctx, service.SubmitRequest{Name: "orphan", Config: tinyConfig(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		running = append(running, backend.RunningTask{TaskID: pre.take().TaskID})
	}
	a.http.Close()
	a.srv.Close()

	start := time.Now()
	b := durable(service.Options{MaxJobs: 1, Budget: 1})
	w, resp := register(b, running)
	if len(resp.Adopted) != len(running) {
		t.Fatalf("adopted %v of %d claimed runs; want every one", resp.Adopted, len(running))
	}
	w.deregister()

	for _, id := range ids {
		info, err := b.c.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != service.StateDone || info.Backend != "local" {
			t.Errorf("%s: state %s (%s), backend %q; want done, local", id, info.State, info.Error, info.Backend)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("restart to done took %v, want < 10s: a job waited for a worker that had left", elapsed)
	}
	if st := b.srv.Stats(); st.FallbackJobs != uint64(len(ids)) || st.RemoteJobs != 0 {
		t.Errorf("stats: fallback %d, remote %d; want %d, 0", st.FallbackJobs, st.RemoteJobs, len(ids))
	}
}
