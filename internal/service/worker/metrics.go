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

	engineCycles    *obs.Counter
	engineCompute   *obs.Histogram
	engineBarrier   *obs.Histogram
	engineParks     *obs.Counter
	engineShardSync *obs.Histogram

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
	m.engineCycles = reg.Counter("hornet_engine_cycles_total", "Simulated cycles executed on this worker.")
	m.engineCompute = reg.Histogram("hornet_engine_compute_seconds", "Per-chunk engine compute time (summed across worker threads).", nil)
	m.engineBarrier = reg.Histogram("hornet_engine_barrier_wait_seconds", "Per-chunk barrier wait time (summed across worker threads).", nil)
	m.engineParks = reg.Counter("hornet_engine_barrier_parks_total", "Barrier waits that outlasted the polling bound and put the worker thread to sleep.")
	m.engineShardSync = reg.Histogram("hornet_engine_shard_sync_seconds", "Per-chunk shard synchronization round-trip time.", nil)
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

// observeEngine folds the delta between consecutive probe snapshots of
// one task into the engine series. Snapshots from one probe are
// monotone; a guard keeps a reordered pair from going negative.
func (m *workerMetrics) observeEngine(prev, cur obs.ProbeSnapshot) {
	if m == nil {
		return
	}
	if cur.Cycles > prev.Cycles {
		m.engineCycles.Add(cur.Cycles - prev.Cycles)
	}
	if d := (cur.ComputeWallMS() - prev.ComputeWallMS()) / 1e3; d > 0 {
		m.engineCompute.Observe(d)
	}
	if d := (cur.BarrierWallMS() - prev.BarrierWallMS()) / 1e3; d > 0 {
		m.engineBarrier.Observe(d)
	}
	if parks, was := cur.BarrierParks(), prev.BarrierParks(); parks > was {
		m.engineParks.Add(parks - was)
	}
	if d := (cur.ShardSyncWallMS - prev.ShardSyncWallMS) / 1e3; d > 0 {
		m.engineShardSync.Observe(d)
	}
}
