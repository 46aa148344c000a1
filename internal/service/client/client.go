// Package client is the Go client for hornet-serve: submit scenarios,
// poll or stream job progress, and fetch result documents over the
// daemon's HTTP/JSON API.
//
//	c := client.New("http://localhost:8080")
//	info, err := c.Submit(ctx, service.SubmitRequest{Figure: "t1", Tiny: true})
//	info, err = c.Wait(ctx, info.ID)
//	doc, raw, err := c.Result(ctx, info.ID)
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hornet/internal/obs"
	"hornet/internal/service"
	"hornet/internal/service/backend"
	"hornet/internal/sweep"
)

// Client talks to one hornet-serve daemon.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://localhost:8080".
	Base string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
}

// New returns a client for the daemon at base.
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Transport-level retry policy for idempotent requests: a GET that
// fails before an HTTP response arrives (connection refused or reset —
// the signature of a coordinator restarting under the client) is
// retried a bounded number of times with exponential backoff instead
// of surfacing a transient dial error to the caller. HTTP-level errors
// (4xx/5xx) are authoritative answers and are never retried here.
const (
	retryAttempts  = 5
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
)

// backoffWait sleeps for attempt's backoff delay, honouring ctx.
func backoffWait(ctx context.Context, attempt int) error {
	d := retryBaseDelay << attempt
	if d > retryMaxDelay || d <= 0 {
		d = retryMaxDelay
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// send issues the request; idempotent (body-less GET) requests retry
// transport errors per the policy above. Safe to re-issue only because
// the request has no body to rewind.
func (c *Client) send(req *http.Request, idempotent bool) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.http().Do(req)
		if err == nil || !idempotent || attempt+1 >= retryAttempts {
			return resp, err
		}
		if werr := backoffWait(req.Context(), attempt); werr != nil {
			return nil, err
		}
	}
}

// do issues a request and decodes either the success body into out or
// the structured error envelope into an *service.APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.send(req, method == http.MethodGet && body == nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env struct {
		Err service.APIError `json:"error"`
	}
	if err := json.Unmarshal(b, &env); err == nil && env.Err.Code != "" {
		return &env.Err
	}
	return fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(b))
}

// Submit sends a scenario and returns the accepted job.
func (c *Client) Submit(ctx context.Context, req service.SubmitRequest) (service.JobInfo, error) {
	var info service.JobInfo
	err := c.do(ctx, http.MethodPost, "/api/v1/jobs", req, &info)
	return info, err
}

// Validate dry-runs a submission: the daemon compiles and normalizes it
// exactly as Submit would — returning the content address, run keys,
// and (for scenario documents) the canonical normalized form — without
// enqueueing anything.
func (c *Client) Validate(ctx context.Context, req service.SubmitRequest) (service.ValidateResponse, error) {
	var resp service.ValidateResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/validate", req, &resp)
	return resp, err
}

// IsCode reports whether err is a structured daemon rejection carrying
// the given error code (service.CodeInvalidScenario etc.), so callers
// can branch on the machine-readable code instead of message text.
func IsCode(err error, code string) bool {
	var apiErr *service.APIError
	return errors.As(err, &apiErr) && apiErr.Code == code
}

// ErrorField extracts the JSON-pointer field path from a structured
// daemon rejection ("" when err carries none): the location in the
// submitted request body the daemon rejected.
func ErrorField(err error) string {
	var apiErr *service.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Field
	}
	return ""
}

// Job fetches the job's current state.
func (c *Client) Job(ctx context.Context, id string) (service.JobInfo, error) {
	var info service.JobInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, &info)
	return info, err
}

// Wait long-polls until the job reaches a terminal state (or ctx ends).
func (c *Client) Wait(ctx context.Context, id string) (service.JobInfo, error) {
	for {
		var info service.JobInfo
		err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id+"?wait=30s", nil, &info)
		if err != nil {
			return info, err
		}
		if info.Terminal() {
			return info, nil
		}
		if err := ctx.Err(); err != nil {
			return info, err
		}
	}
}

// Cancel asks the daemon to cancel the job and returns its state.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobInfo, error) {
	var info service.JobInfo
	err := c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+id, nil, &info)
	return info, err
}

// Result fetches the job's result document: parsed, plus the exact bytes
// the daemon served (the cache byte-identity contract is on the bytes).
func (c *Client) Result(ctx context.Context, id string) (sweep.Document, []byte, error) {
	var doc sweep.Document
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/api/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return doc, nil, err
	}
	resp, err := c.send(req, true)
	if err != nil {
		return doc, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return doc, nil, decodeError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return doc, nil, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, raw, fmt.Errorf("client: malformed result document: %w", err)
	}
	return doc, raw, nil
}

// Trace fetches the job's span timeline as Chrome trace_event JSON:
// parsed, plus the exact bytes served (save them to a file and load it
// in Perfetto or chrome://tracing).
func (c *Client) Trace(ctx context.Context, id string) (obs.TraceDocument, []byte, error) {
	var doc obs.TraceDocument
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/api/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return doc, nil, err
	}
	resp, err := c.send(req, true)
	if err != nil {
		return doc, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return doc, nil, decodeError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return doc, nil, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, raw, fmt.Errorf("client: malformed trace document: %w", err)
	}
	return doc, raw, nil
}

// Figures lists the registry experiments the daemon can run.
func (c *Client) Figures(ctx context.Context) ([]service.FigureInfo, error) {
	var figs []service.FigureInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/figures", nil, &figs)
	return figs, err
}

// Stats fetches the scheduler/cache observability snapshot.
func (c *Client) Stats(ctx context.Context) (service.ServerStats, error) {
	var st service.ServerStats
	err := c.do(ctx, http.MethodGet, "/api/v1/stats", nil, &st)
	return st, err
}

// Workers lists the daemon's registered worker fleet (distributed
// mode): capacity, free slots, assigned tasks, last heartbeat.
func (c *Client) Workers(ctx context.Context) ([]backend.WorkerInfo, error) {
	var ws []backend.WorkerInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/workers", nil, &ws)
	return ws, err
}

// Events subscribes to the job's SSE stream and invokes fn for every
// event until the stream ends (terminal state), ctx is cancelled, or fn
// returns false. A stream torn mid-flight (coordinator restart) is
// re-subscribed with bounded backoff; the server replays a full state
// snapshot on every connect, so the caller's view re-converges even
// though intermediate events in the gap are lost.
func (c *Client) Events(ctx context.Context, id string, fn func(service.Event) bool) error {
	return c.streamSSE(ctx, "/api/v1/jobs/"+id+"/events", fn)
}

// Telemetry subscribes to the job's machine-telemetry SSE stream —
// merged full-machine per-tile/per-link snapshots plus "stalled"
// watchdog notices — and invokes fn for every event until the stream
// ends (terminal state), ctx is cancelled, or fn returns false. Torn
// streams reattach like Events.
func (c *Client) Telemetry(ctx context.Context, id string, fn func(service.Event) bool) error {
	return c.streamSSE(ctx, "/api/v1/jobs/"+id+"/telemetry", fn)
}

// streamSSE runs one SSE subscription with reattach: transport errors
// and torn streams retry with exponential backoff (the retry budget
// re-arms whenever a connection delivers an event — a long-lived healthy
// stream does not use up the allowance for the restart that eventually
// tears it); HTTP-level errors and clean stream ends are final.
func (c *Client) streamSSE(ctx context.Context, path string, fn func(service.Event) bool) error {
	for attempt := 0; ; attempt++ {
		delivered, retriable, err := c.streamOnce(ctx, path, fn)
		if delivered {
			attempt = 0
		}
		if err == nil || !retriable || ctx.Err() != nil {
			return err
		}
		if attempt+1 >= retryAttempts {
			return err
		}
		if werr := backoffWait(ctx, attempt); werr != nil {
			return err
		}
	}
}

// streamOnce is one SSE connection: it reports whether any event was
// delivered to fn and whether a failure is worth a reattach.
func (c *Client) streamOnce(ctx context.Context, path string, fn func(service.Event) bool) (delivered, retriable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return false, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http().Do(req)
	if err != nil {
		return false, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return false, false, decodeError(resp)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // event: lines and keep-alive blanks
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return delivered, false, fmt.Errorf("client: malformed event: %w", err)
		}
		delivered = true
		if !fn(ev) {
			return delivered, false, nil
		}
	}
	if err := scanner.Err(); err != nil && ctx.Err() == nil {
		// A mid-stream tear: the handler never ends a healthy stream
		// without the terminal snapshot, so this is a dead coordinator
		// (or broken path), not a finished job.
		return delivered, true, err
	}
	return delivered, false, nil
}

// SubmitAndWait is the common round trip: submit, wait for terminal,
// return the final state.
func (c *Client) SubmitAndWait(ctx context.Context, req service.SubmitRequest) (service.JobInfo, error) {
	info, err := c.Submit(ctx, req)
	if err != nil {
		return info, err
	}
	return c.Wait(ctx, info.ID)
}

// WaitTimeout is Wait bounded by d.
func (c *Client) WaitTimeout(ctx context.Context, id string, d time.Duration) (service.JobInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	return c.Wait(ctx, id)
}
