// Package backend is hornet-serve's execution layer: the Task a
// scheduler executes, the Sink an execution reports through, and the
// Fleet (fleet.go). Every task runs through the Fleet. Its workers are
// the registered hornet-worker processes, to which it ships validated
// job configs, streams their progress back and migrates a dead worker's
// task to a survivor via its uploaded checkpoints, and the coordinator's
// own in-process worker, which makes the same calls as method calls.
// Placement gives a task to the remote workers while any is registered,
// unless it is pinned to this host; the in-process worker takes the
// rest. Either way a task is one engine in one process. JobInfo names the
// two worker classes "fleet" and "local".
//
// The package deliberately knows nothing about the service package's
// scenario compilation: a Task carries the client's original request
// bytes (the worker revalidates them itself) plus the job's compiled
// identity, so backend and service can be layered without an import
// cycle.
package backend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"hornet/internal/obs"
)

// Task is one unit of executable work: the job's compiled identity plus
// the original submit-request bytes a remote worker needs to rebuild
// and revalidate the scenario.
type Task struct {
	// ID is assigned by the fleet at dispatch time; empty for tasks that
	// never leave the coordinator.
	ID string
	// JobID is the owning job's public identity, threaded through so
	// the fleet can journal durable facts (assignments) against the job
	// a restarted coordinator will rebuild.
	JobID string
	// ReattachID, when non-empty, is the fleet task ID this job held
	// before a coordinator restart: Execute reuses it instead of
	// minting a fresh one, and if the pre-crash worker has re-claimed
	// the ID the execution is re-adopted in place instead of being
	// dispatched again.
	ReattachID string
	// Name/Hash/Seed are the job's content address (document identity).
	Name string
	Hash string
	Seed uint64
	// Kind is the scenario kind (config/batch/mips/figure).
	Kind string
	// Weight is the engine-worker (CPU slot) request of the job's runs;
	// the executing backend clamps it to what it can grant.
	Weight int
	// Pinned keeps the task on the in-process worker: a figure's serial
	// timing columns measure this host.
	Pinned bool
	// Request is the client's original SubmitRequest JSON. Remote
	// workers re-run full validation on it — a coordinator must never be
	// able to make a worker execute an unvalidated configuration.
	Request json.RawMessage
	// Checkpoints carries the latest uploaded snapshot blob per run key.
	// The fleet fills it when re-dispatching a task whose worker died,
	// so the next executor resumes instead of restarting.
	Checkpoints map[string]Blob
	// Compiled is the coordinator's pre-validated scenario, consumed by
	// the in-process worker to skip re-parsing. Opaque at this layer.
	Compiled any
}

// Blob is one checkpoint snapshot in transit: the encoded container
// plus the simulation clock it was taken at (observability).
type Blob struct {
	Cycle uint64 `json:"cycle"`
	Data  []byte `json:"data"`
}

// Sink receives execution progress from whichever backend runs the
// task. Implementations must be safe for concurrent calls.
type Sink interface {
	// Progress reports done-of-total completed runs.
	Progress(done, total int, key string)
	// Resumed reports that a run restored a checkpoint at cycle instead
	// of starting from 0.
	Resumed(key string, cycle uint64)
	// Checkpoint reports one autosaved snapshot at cycle.
	Checkpoint(key string, cycle uint64)
	// Engine reports a probe snapshot of an instrumented execution
	// (cycles/sec, barrier-wait vs. compute split).
	Engine(s obs.ProbeSnapshot)
	// Telemetry reports the latest machine-telemetry sample (per-tile
	// flit counters, per-link buffer occupancy) at a wall-clock cadence.
	Telemetry(s obs.TelemetrySnapshot)
	// Note records a lifecycle annotation ("dispatched", "requeued",
	// ...) for the job's trace timeline. A "dispatched" or
	// "reattached" note names the worker class now running the task in
	// its "backend" field ("local" or "fleet"); an in-process dispatch of
	// a task a remote worker took or waited for also carries "fallback".
	// The fleet calls it with its lock held, so it must not block or call
	// back into the fleet.
	Note(event string, fields map[string]string)
}

// Discard is the Sink that drops every call. Embed it to implement only
// the methods a sink cares about.
type Discard struct{}

func (Discard) Progress(int, int, string)       {}
func (Discard) Resumed(string, uint64)          {}
func (Discard) Checkpoint(string, uint64)       {}
func (Discard) Engine(obs.ProbeSnapshot)        {}
func (Discard) Telemetry(obs.TelemetrySnapshot) {}
func (Discard) Note(string, map[string]string)  {}

// EventSink is the worker's half of the wire codec: it encodes every Sink
// call as a TaskEvent and hands it to the function — the HTTP push to the
// coordinator, where TaskEvent.Deliver decodes it onto the job's sink.
// Notes are dropped: they are the coordinator's own annotations.
type EventSink func(TaskEvent)

func (push EventSink) Progress(done, total int, key string) {
	push(TaskEvent{Type: "progress", Done: done, Total: total, Key: key})
}

func (push EventSink) Resumed(key string, cycle uint64) {
	push(TaskEvent{Type: "resumed", Key: key, Cycle: cycle})
}

func (push EventSink) Checkpoint(key string, cycle uint64) {
	push(TaskEvent{Type: "checkpoint", Key: key, Cycle: cycle})
}

func (push EventSink) Engine(s obs.ProbeSnapshot) { push(TaskEvent{Type: "engine", Engine: &s}) }

func (push EventSink) Telemetry(s obs.TelemetrySnapshot) {
	push(TaskEvent{Type: "telemetry", Telemetry: &s})
}

func (EventSink) Note(string, map[string]string) {}

// Journal receives the fleet's durable-coordinator notifications; the
// server forwards them to its write-ahead log (see service/journal) so
// a restart can rebuild what the fleet was doing. Implementations must
// be safe for concurrent use; the fleet calls them outside its lock.
type Journal interface {
	// Assigned records that taskID (with a slots-wide grant) now
	// executes jobID's work — at dispatch, re-dispatch, and adoption.
	Assigned(jobID, taskID string, slots int)
}

// ErrClosed reports a call into a closed fleet: Close fails every task
// still queued or running remotely with it, and refuses registrations.
var ErrClosed = errors.New("backend: fleet closed")

// LocalRun is one assignment of the in-process worker (RegisterLocal):
// one task, with the job's sink, which it reaches by method calls
// instead of HTTP.
type LocalRun struct {
	// Ctx ends when the task is cancelled or the fleet closes.
	Ctx context.Context
	// Task carries the blobs its remote executors uploaded before it
	// came here (Checkpoints): a migrated run resumes from them.
	Task *Task
	// Sink is the job's sink.
	Sink Sink
	// Done is the result push: call it once, with the document or the
	// failure.
	Done func(doc []byte, runErrs int, err error)
}

// ErrUnknownWorker reports a fleet call from a worker ID the registry
// does not know — typically a worker that outlived its lease and was
// expired. The worker's recovery is to re-register.
var ErrUnknownWorker = errors.New("backend: unknown worker")

// ErrGone reports a push for a task no longer assigned to the pushing
// worker (cancelled, migrated, or completed elsewhere). The worker's
// response is to abandon the run.
var ErrGone = errors.New("backend: task no longer assigned to this worker")

// Wire types of the coordinator←worker HTTP protocol. Both ends are Go,
// so time.Durations travel as int64 nanoseconds and blobs as base64.

// RegisterRequest is the body of POST /api/v1/workers.
type RegisterRequest struct {
	// ID is the worker's stable identity; empty lets the coordinator
	// mint one. Re-registering an ID the fleet already knows replaces
	// the old incarnation (its tasks requeue).
	ID string `json:"id,omitempty"`
	// Capacity is the number of CPU slots the worker offers; it bounds
	// the engine workers of any task assigned to it.
	Capacity int `json:"capacity"`
	// Running lists the in-flight executions the worker still carries
	// when it re-registers (a coordinator restart, or a lease that
	// expired under a live worker). The coordinator re-adopts the ones
	// it can — task still queued for re-dispatch, or expected back
	// after a journal replay — and the worker cancels the rest.
	Running []RunningTask `json:"running,omitempty"`
}

// RunningTask is one in-flight execution claimed by a re-registering
// worker: the assignment it still runs and the newest checkpoint
// cycle it has uploaded (observability for the resumed-run record).
type RunningTask struct {
	TaskID string `json:"task_id"`
	Cycle  uint64 `json:"cycle,omitempty"`
}

// RegisterResponse tells the worker its identity and cadences.
type RegisterResponse struct {
	ID string `json:"id"`
	// LeaseTTL is how long the coordinator keeps a silent worker alive;
	// the worker must heartbeat (or poll, or push) more often than this.
	LeaseTTL time.Duration `json:"lease_ttl"`
	// HeartbeatEvery is the suggested heartbeat period (TTL/3).
	HeartbeatEvery time.Duration `json:"heartbeat_every"`
	// CheckpointEvery is the autosave cadence (simulated cycles) every
	// worker must use, so migrated runs re-align chunk boundaries.
	CheckpointEvery uint64 `json:"checkpoint_every"`
	// Adopted echoes the subset of RegisterRequest.Running the
	// coordinator re-bound to this registration: those executions
	// continue untouched; the worker must cancel the rest.
	Adopted []string `json:"adopted,omitempty"`
}

// Assignment is one dispatched task (POST .../poll response).
type Assignment struct {
	TaskID string `json:"task_id"`
	Name   string `json:"name"`
	Hash   string `json:"hash"`
	Kind   string `json:"kind"`
	Seed   uint64 `json:"seed"`
	// Workers is the CPU-slot grant for this execution (the task weight
	// clamped to the worker's capacity).
	Workers int `json:"workers"`
	// CheckpointEvery is the autosave cadence in simulated cycles.
	CheckpointEvery uint64 `json:"checkpoint_every"`
	// Request is the original SubmitRequest JSON to revalidate and run.
	Request json.RawMessage `json:"request"`
	// Checkpoints seeds the worker's checkpoint store for resume after a
	// migration (run key → latest blob).
	Checkpoints map[string]Blob `json:"checkpoints,omitempty"`
}

// TaskEvent is one progress push (POST .../tasks/{id}/events).
type TaskEvent struct {
	// Type is "progress", "resumed", "checkpoint", "engine" or
	// "telemetry".
	Type  string `json:"type"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Key   string `json:"key,omitempty"`
	Cycle uint64 `json:"cycle,omitempty"`
	// Engine carries the executing worker's probe snapshot for "engine"
	// events (live cycles/sec and barrier-wait split per running job).
	Engine *obs.ProbeSnapshot `json:"engine,omitempty"`
	// Telemetry carries the executing worker's machine-telemetry sample
	// for "telemetry" events (per-tile flit counters, per-link buffer
	// occupancy).
	Telemetry *obs.TelemetrySnapshot `json:"telemetry,omitempty"`
}

// Deliver makes the Sink call ev encodes (see EventSink). An unknown type,
// or an engine or telemetry event without its payload, is an error.
func (ev TaskEvent) Deliver(s Sink) error {
	switch {
	case ev.Type == "progress":
		s.Progress(ev.Done, ev.Total, ev.Key)
	case ev.Type == "resumed":
		s.Resumed(ev.Key, ev.Cycle)
	case ev.Type == "checkpoint":
		s.Checkpoint(ev.Key, ev.Cycle)
	case ev.Type == "engine" && ev.Engine != nil:
		s.Engine(*ev.Engine)
	case ev.Type == "telemetry" && ev.Telemetry != nil:
		s.Telemetry(*ev.Telemetry)
	default:
		return fmt.Errorf("backend: malformed %q event", ev.Type)
	}
	return nil
}

// ResultPush is the terminal push (POST .../tasks/{id}/result).
type ResultPush struct {
	// Doc is the canonical document bytes of a successful execution.
	Doc []byte `json:"doc,omitempty"`
	// RunErrs is the number of per-run errors recorded in the document.
	RunErrs int `json:"run_errs,omitempty"`
	// Error is a non-empty diagnostic when the execution failed.
	Error string `json:"error,omitempty"`
	// Canceled acknowledges a coordinator-initiated cancellation.
	Canceled bool `json:"canceled,omitempty"`
}

// HeartbeatResponse piggybacks coordinator→worker control on the
// heartbeat: tasks the worker should stop executing.
type HeartbeatResponse struct {
	CancelTasks []string `json:"cancel_tasks,omitempty"`
}

// WorkerInfo is the ops view of one registered worker
// (GET /api/v1/workers).
type WorkerInfo struct {
	ID       string    `json:"id"`
	Capacity int       `json:"capacity"`
	Free     int       `json:"free"`
	Tasks    []string  `json:"tasks,omitempty"`
	LastSeen time.Time `json:"last_seen"`
}

// FleetStats is the fleet's observability snapshot, embedded in
// ServerStats.
type FleetStats struct {
	// WorkersLive / FleetCapacity describe the current fleet; FleetInUse
	// and FleetPeak (the most ever held at once) count the slots the
	// placement granted on the live workers, so neither ever exceeds the
	// capacity of its time — the coordinator never oversubscribes.
	WorkersLive   int    `json:"workers_live"`
	WorkersJoined uint64 `json:"workers_joined"`
	WorkersLost   uint64 `json:"workers_lost"`
	FleetCapacity int    `json:"fleet_capacity"`
	FleetInUse    int    `json:"fleet_in_use"`
	FleetPeak     int    `json:"fleet_peak"`
	// TasksDispatched counts assignments (including re-dispatches);
	// TasksRequeued counts migrations back to the queue after a worker
	// died or deregistered mid-task.
	TasksQueued     int    `json:"tasks_queued"`
	TasksDispatched uint64 `json:"tasks_dispatched"`
	TasksRequeued   uint64 `json:"tasks_requeued"`
	TasksCompleted  uint64 `json:"tasks_completed"`
	// CheckpointBlobs is the number of migration snapshots currently
	// held for in-flight tasks.
	CheckpointBlobs int `json:"checkpoint_blobs"`
	// TasksAdopted counts in-flight executions re-bound to a
	// re-registering worker (coordinator restart reattach, or a lease
	// expiry the worker outlived) instead of being re-dispatched.
	TasksAdopted uint64 `json:"tasks_adopted"`
	// CheckpointBytes is the total size of checkpoint blobs accepted
	// from workers (migration uploads).
	CheckpointBytes uint64 `json:"checkpoint_bytes"`
}
