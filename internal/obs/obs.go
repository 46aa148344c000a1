// Package obs is hornet's dependency-free observability layer:
// structured logging conventions on top of log/slog, a hand-rolled
// metrics registry with Prometheus text exposition, a cycle-level
// engine probe (cycles/sec, per-partition barrier-wait vs. compute),
// and per-job trace timelines exported as Chrome trace_event JSON
// (loadable in Perfetto / chrome://tracing).
//
// Everything here is stdlib-only by design: the simulator links no
// third-party code, and the engine hot path must stay allocation-free
// when no probe is attached.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Shared attribute keys: every component logs the same names so one
// grep ("job=job-000007") follows a job across coordinator, fleet and
// worker logs.
const (
	KeyComponent = "component"
	KeyJob       = "job"
	KeyTask      = "task"
	KeyWorker    = "worker"
)

// Component tags a logger with the subsystem name ("scheduler",
// "fleet", "worker", ...). Use once at construction, not per call.
func Component(l *slog.Logger, name string) *slog.Logger {
	return l.With(slog.String(KeyComponent, name))
}

// Job, Task and Worker build the shared convention attrs.
func Job(id string) slog.Attr    { return slog.String(KeyJob, id) }
func Task(id string) slog.Attr   { return slog.String(KeyTask, id) }
func Worker(id string) slog.Attr { return slog.String(KeyWorker, id) }
func Err(err error) slog.Attr    { return slog.Any("err", err) }

// Nop returns a logger that discards everything. Components take
// *slog.Logger, never nil; callers without an opinion pass Nop().
func Nop() *slog.Logger { return slog.New(slog.DiscardHandler) }

// NewLogger builds a logger from the -log-level / -log-format flag
// values shared by hornet-serve and hornet-worker. level is one of
// debug|info|warn|error, format one of text|json.
func NewLogger(level, format string, w io.Writer) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", format)
	}
}
