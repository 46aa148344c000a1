package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The retention janitor removes a terminal job's record while SSE
// subscribers and ?wait= long-polls may still hold the job object.
// Those handlers must finish their streams off their own reference —
// final snapshot, clean EOF — while concurrent expire() sweeps drop the
// record, with no data race and no leaked handler goroutine. This is
// the -race regression for jobStore.expire racing live readers.
func TestExpireRacesOpenSubscriberAndLongPoll(t *testing.T) {
	srv := mustServer(t, Options{MaxJobs: 1, Budget: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Bypass the scheduler: the test needs full control over when the
	// job turns terminal, so the record is planted directly.
	sc := &scenario{surface: KindBatch, name: "expire-race", hash: "00112233aabbccdd", seed: 1}
	j := newJob(srv.jobs.nextID(), SubmitRequest{}, sc, context.Background(), time.Now())
	srv.jobs.add(j)
	id := j.Info().ID

	httpc := ts.Client()
	baseline := runtime.NumGoroutine()

	// SSE subscriber: read frames until the server ends the stream,
	// remember the last state seen.
	var wg sync.WaitGroup
	var lastSSEState string
	var sseErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := httpc.Get(ts.URL + "/api/v1/jobs/" + id + "/events")
		if err != nil {
			sseErr = err
			return
		}
		defer resp.Body.Close()
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			line := scanner.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				sseErr = fmt.Errorf("bad SSE frame %q: %w", line, err)
				return
			}
			if ev.Type == "state" {
				lastSSEState = ev.State
			}
		}
		sseErr = scanner.Err()
	}()

	// Long-poll: blocks on the terminal channel until the job finishes.
	// pollSent closes once the request bytes are on the wire, so the main
	// goroutine can hold the terminal transition until the handler has
	// (all but certainly) looked the job up and blocked on Done().
	pollSent := make(chan struct{})
	var polled JobInfo
	var pollErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/jobs/"+id+"?wait=30s", nil)
		if err != nil {
			pollErr = err
			close(pollSent)
			return
		}
		trace := &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) { close(pollSent) },
		}
		resp, err := httpc.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
		if err != nil {
			pollErr = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			pollErr = fmt.Errorf("long-poll status %d", resp.StatusCode)
			return
		}
		pollErr = json.NewDecoder(resp.Body).Decode(&polled)
	}()

	// Wait until the SSE handler has actually subscribed and the
	// long-poll request is on the wire, so the expire sweeps below
	// genuinely race an open subscription and an in-flight poll. The
	// poll handler leaves no observable trace before it blocks, so a
	// short grace after the request bytes land stands in for "blocked".
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.mu.Lock()
		n := len(j.subs)
		j.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-pollSent:
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll request never hit the wire")
	}
	time.Sleep(100 * time.Millisecond)

	// Hammer expire from several goroutines while the job transitions to
	// terminal underneath the open subscriber and the in-flight poll.
	stop := make(chan struct{})
	var sweepers sync.WaitGroup
	for i := 0; i < 4; i++ {
		sweepers.Add(1)
		go func() {
			defer sweepers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					srv.jobs.expire(time.Now().Add(time.Hour))
				}
			}
		}()
	}

	j.start(time.Now())
	j.progress(1, 1, "run-0")
	j.finish([]byte(`{"ok":true}`), false, time.Now())

	wg.Wait()
	close(stop)
	sweepers.Wait()

	if sseErr != nil {
		t.Fatalf("SSE stream: %v", sseErr)
	}
	if lastSSEState != StateDone {
		t.Fatalf("final SSE state = %q, want %q", lastSSEState, StateDone)
	}
	if pollErr != nil {
		t.Fatalf("long-poll: %v", pollErr)
	}
	if polled.State != StateDone {
		t.Fatalf("long-poll state = %q, want %q", polled.State, StateDone)
	}

	// The terminal job must now be expired: the record 404s.
	resp, err := httpc.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired job GET status %d, want 404", resp.StatusCode)
	}

	// No leaked handler goroutines: both streams ended, so the count
	// settles back to the pre-request baseline (idle HTTP conns allowed).
	httpc.CloseIdleConnections()
	for end := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(end) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A subscriber that attaches after the job is already terminal gets an
// immediately-closed channel; expiring the record concurrently must not
// disturb that, and unsubscribe after expiry is a harmless no-op.
func TestSubscribeAfterTerminalSurvivesExpire(t *testing.T) {
	sc := &scenario{surface: KindBatch, name: "late-sub", hash: "ffeeddccbbaa0011", seed: 2}
	store := newJobStore()
	j := newJob(store.nextID(), SubmitRequest{}, sc, context.Background(), time.Now())
	store.add(j)
	j.start(time.Now())
	j.finish(nil, false, time.Now())

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, unsub := j.subscribe()
			if _, open := <-ch; open {
				t.Error("terminal job delivered an event on subscribe")
			}
			unsub()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			store.expire(time.Now().Add(time.Hour))
		}
	}()
	wg.Wait()

	if _, ok := store.get(j.Info().ID); ok {
		t.Fatal("terminal job survived expire")
	}
}
