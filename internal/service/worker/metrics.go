package worker

import (
	"time"

	"hornet/internal/obs"
)

// workerMetrics is the worker's metric surface, registered into the
// caller-supplied registry (hornet-worker mounts it at -metrics-addr's
// GET /metrics). A nil registry disables everything: every method is
// nil-receiver-safe so call sites stay unconditional.
type workerMetrics struct {
	registrations *obs.Counter
	pollErrors    *obs.Counter
	uploads       *obs.Counter
	uploadBytes   *obs.Counter
	uploadSecs    *obs.Histogram
	uploadSizes   *obs.Histogram

	engine *obs.EngineSeries

	reg *obs.Registry
}

func newWorkerMetrics(w *Worker, reg *obs.Registry) *workerMetrics {
	if reg == nil {
		return nil
	}
	m := &workerMetrics{reg: reg}
	reg.GaugeFunc("hornet_worker_capacity", "CPU slots this worker advertises.",
		func() float64 { return float64(w.opts.Capacity) })
	reg.GaugeFunc("hornet_worker_busy_slots", "CPU slots held by in-flight task executions.",
		func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return float64(w.busy)
		})
	m.registrations = reg.Counter("hornet_worker_registrations_total", "Successful coordinator registrations (re-registrations included).")
	m.pollErrors = reg.Counter("hornet_worker_poll_errors_total", "Failed assignment polls.")
	m.uploads = reg.Counter("hornet_worker_checkpoint_uploads_total", "Checkpoint blobs uploaded to the coordinator.")
	m.uploadBytes = reg.Counter("hornet_worker_checkpoint_upload_bytes_total", "Checkpoint bytes uploaded to the coordinator.")
	m.uploadSecs = reg.Histogram("hornet_worker_checkpoint_upload_seconds", "Checkpoint upload round-trip latency.", nil)
	m.uploadSizes = reg.Histogram("hornet_worker_checkpoint_upload_size_bytes", "Checkpoint blob sizes uploaded.", obs.SizeBuckets)
	m.engine = obs.NewEngineSeries(reg)
	return m
}

func (m *workerMetrics) registered() {
	if m != nil {
		m.registrations.Inc()
	}
}

func (m *workerMetrics) pollErr() {
	if m != nil {
		m.pollErrors.Inc()
	}
}

// taskDone counts one terminal task outcome ("done", "failed",
// "canceled", "abandoned") lazily, so only outcomes that occurred
// appear in the exposition.
func (m *workerMetrics) taskDone(outcome string) {
	if m != nil {
		m.reg.Counter("hornet_worker_tasks_total", "Task executions by terminal outcome.",
			obs.L("outcome", outcome)).Inc()
	}
}

func (m *workerMetrics) uploadDone(bytes int, d time.Duration) {
	if m == nil {
		return
	}
	m.uploads.Inc()
	m.uploadBytes.Add(uint64(bytes))
	m.uploadSecs.ObserveDuration(d)
	m.uploadSizes.Observe(float64(bytes))
}

// observeEngine records one task's engine-snapshot increments.
func (m *workerMetrics) observeEngine(d obs.EngineDelta) {
	if m != nil {
		m.engine.Observe(d)
	}
}
