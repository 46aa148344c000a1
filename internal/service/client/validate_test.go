package client

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hornet/internal/service"
)

// startDaemon serves an in-process daemon for the test and returns a
// client for it.
func startDaemon(t *testing.T) *Client {
	t.Helper()
	srv, err := service.NewDurable(service.Options{MaxJobs: 1, Budget: 1})
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return New(ts.URL)
}

// TestValidateExamples walks the examples/scenarios gallery through a
// real daemon's POST /api/v1/validate: every shipped example must
// dry-run clean, report kind "scenario", and come back with a stable
// content address and the normalized document.
func TestValidateExamples(t *testing.T) {
	c := startDaemon(t)

	dir := filepath.Join("..", "..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("examples gallery missing: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("examples/scenarios is empty")
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.Validate(context.Background(),
				service.SubmitRequest{Scenario: json.RawMessage(raw)})
			if err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if resp.Kind != service.KindScenario {
				t.Fatalf("kind = %q, want %q", resp.Kind, service.KindScenario)
			}
			if resp.Name == "" || resp.ConfigHash == "" ||
				resp.CacheKey != resp.Name+"-"+resp.ConfigHash {
				t.Fatalf("bad content address: %+v", resp)
			}
			if resp.RunsTotal < 1 || len(resp.Normalized) == 0 {
				t.Fatalf("bad dry-run detail: %+v", resp)
			}
			// Second validation of the normalized form: same address
			// (normalization is the identity's fixed point).
			again, err := c.Validate(context.Background(),
				service.SubmitRequest{Scenario: json.RawMessage(resp.Normalized)})
			if err != nil {
				t.Fatalf("re-Validate normalized form: %v", err)
			}
			if again.ConfigHash != resp.ConfigHash || again.CacheKey != resp.CacheKey {
				t.Fatalf("normalized form re-hashed differently: %s vs %s",
					again.ConfigHash, resp.ConfigHash)
			}
		})
	}
}

// TestValidateStructuredErrors: a rejected validation surfaces the
// machine-readable code and JSON-pointer field through the client's
// helpers.
func TestValidateStructuredErrors(t *testing.T) {
	c := startDaemon(t)

	_, err := c.Validate(context.Background(), service.SubmitRequest{
		Scenario: json.RawMessage(`{"version": 9}`),
	})
	if err == nil {
		t.Fatal("invalid scenario validated clean")
	}
	if !IsCode(err, service.CodeInvalidScenario) {
		t.Fatalf("IsCode(%v, %s) = false", err, service.CodeInvalidScenario)
	}
	if IsCode(err, service.CodeQueueFull) {
		t.Fatal("IsCode matched the wrong code")
	}
	if got := ErrorField(err); got != "/scenario/version" {
		t.Fatalf("ErrorField = %q, want /scenario/version", got)
	}

	_, err = c.Validate(context.Background(), service.SubmitRequest{Workers: -1})
	if err == nil {
		t.Fatal("empty submission validated clean")
	}
	if ErrorField(err) != "" && !strings.HasPrefix(ErrorField(err), "/") {
		t.Fatalf("ErrorField = %q, want a JSON pointer or empty", ErrorField(err))
	}
}
