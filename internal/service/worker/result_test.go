package worker

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hornet/internal/service/backend"
)

// resultStub is a coordinator that answers the n-th result POST with
// answers[n] (the last answer repeats) and records every body it read.
type resultStub struct {
	mu      sync.Mutex
	answers []func(http.ResponseWriter)
	got     []backend.ResultPush
}

func (s *resultStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/api/v1/workers/w1/tasks/task-000001/result" {
		http.NotFound(w, r)
		return
	}
	var res backend.ResultPush
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	answer := s.answers[min(len(s.got), len(s.answers)-1)]
	s.got = append(s.got, res)
	s.mu.Unlock()
	answer(w)
}

func (s *resultStub) pushes() []backend.ResultPush {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]backend.ResultPush(nil), s.got...)
}

func ok(w http.ResponseWriter) { w.Write([]byte(`{"status":"ok"}`)) }

// reset drops the connection without an answer: the push fails in
// transport.
func reset(w http.ResponseWriter) {
	conn, _, err := http.NewResponseController(w).Hijack()
	if err == nil {
		conn.Close()
	}
}

func status(code int, body string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write([]byte(body))
	}
}

// TestResultPushRetriesUntilAnswered: a result push lost to a reset
// connection or a failing coordinator is sent again until the
// coordinator answers — a dropped result would leave the job waiting on
// a live worker forever — while an answer, task_gone included, ends it.
func TestResultPushRetriesUntilAnswered(t *testing.T) {
	gone := status(http.StatusGone, `{"error":{"code":"task_gone","message":"gone"}}`)
	bad := status(http.StatusBadRequest, `{"error":{"code":"invalid_request","message":"no"}}`)
	for _, tc := range []struct {
		name    string
		answers []func(http.ResponseWriter)
		want    int // result POSTs the coordinator receives
	}{
		{"reset then ok", []func(http.ResponseWriter){reset, ok}, 2},
		{"5xx twice then ok", []func(http.ResponseWriter){status(http.StatusBadGateway, "proxy"), status(http.StatusServiceUnavailable, "busy"), ok}, 3},
		{"ok", []func(http.ResponseWriter){ok}, 1},
		{"task_gone", []func(http.ResponseWriter){gone}, 1},
		{"rejected", []func(http.ResponseWriter){bad}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := &resultStub{answers: tc.answers}
			srv := httptest.NewServer(stub)
			defer srv.Close()
			w := New(Options{Coordinator: srv.URL, ID: "w1", Capacity: 1})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			w.pushResult(ctx, "task-000001", backend.ResultPush{Doc: []byte("doc"), RunErrs: 1})
			got := stub.pushes()
			if len(got) != tc.want {
				t.Fatalf("coordinator received %d result pushes, want %d", len(got), tc.want)
			}
			for i, res := range got {
				if string(res.Doc) != "doc" || res.RunErrs != 1 {
					t.Errorf("push %d carried %+v, want the result", i, res)
				}
			}
		})
	}
}

// TestResultPushStopsWithWorker: the retries end with the worker's
// context.
func TestResultPushStopsWithWorker(t *testing.T) {
	stub := &resultStub{answers: []func(http.ResponseWriter){status(http.StatusInternalServerError, "down")}}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	w := New(Options{Coordinator: srv.URL, ID: "w1", Capacity: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()

	start := time.Now()
	w.pushResult(ctx, "task-000001", backend.ResultPush{Doc: []byte("doc")})
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("pushResult returned %v after its context ended", d)
	}
	if n := len(stub.pushes()); n < 2 {
		t.Errorf("coordinator received %d result pushes before the context ended, want retries", n)
	}
}
