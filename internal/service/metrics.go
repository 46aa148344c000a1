package service

import (
	"net/http"
	"strconv"
	"time"

	"hornet/internal/obs"
)

// serveMetrics is the daemon's Prometheus-text metric surface
// (GET /metrics). Everything the JSON stats endpoint reports is backed
// by the same underlying sources — Func instruments read the live
// scheduler/cache/fleet state at scrape time, so the two views can
// never drift — plus engine histograms and HTTP middleware series the
// JSON view does not carry.
type serveMetrics struct {
	reg *obs.Registry

	// engine is fed by jobSink.Engine: one observation per fresh probe
	// snapshot of a running job, folded by the job's obs.EngineFold.
	engine *obs.EngineSeries
}

// newServeMetrics builds the daemon registry over a server's live
// state. It must be called after the scheduler, stores and fleet
// exist; the Func closures hold references, not snapshots.
func newServeMetrics(s *Server) *serveMetrics {
	reg := obs.NewRegistry()
	m := &serveMetrics{reg: reg}

	// Jobs by state (the queue-depth gauge is the channel backlog: jobs
	// accepted but not yet popped by a scheduler worker).
	for _, state := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		state := state
		reg.GaugeFunc("hornet_jobs", "Jobs by state.",
			func() float64 { return float64(s.jobs.countByState()[state]) },
			obs.L("state", state))
	}
	reg.GaugeFunc("hornet_queue_depth", "Accepted jobs waiting for a scheduler worker.",
		func() float64 { return float64(len(s.sched.queue)) })

	// Shared CPU-slot budget.
	reg.GaugeFunc("hornet_budget_capacity", "CPU-slot pool capacity shared by all in-flight jobs.",
		func() float64 { return float64(s.sched.pool.Cap()) })
	reg.GaugeFunc("hornet_budget_in_use", "CPU slots currently leased.",
		func() float64 { return float64(s.sched.pool.InUse()) })
	reg.GaugeFunc("hornet_budget_peak", "Peak concurrent CPU-slot leases.",
		func() float64 { return float64(s.sched.pool.Peak()) })

	// Result cache.
	reg.GaugeFunc("hornet_result_cache_entries", "Result documents held in memory.",
		func() float64 { return float64(s.results.Len()) })
	reg.CounterFunc("hornet_result_cache_hits_total", "Result cache hits.", s.results.Hits)
	reg.CounterFunc("hornet_result_cache_misses_total", "Result cache misses.", s.results.Misses)
	reg.CounterFunc("hornet_result_cache_write_errors_total", "Failed disk-tier result writes.", s.results.WriteErrs)
	reg.CounterFunc("hornet_result_cache_evictions_total", "In-memory result entries evicted.", s.results.Evictions)

	// Job lifecycle counters.
	reg.CounterFunc("hornet_jobs_expired_total", "Finished job records removed by the retention TTL.", s.jobsExpired.Load)
	reg.CounterFunc("hornet_jobs_coalesced_total", "Submissions served by attaching to an identical in-flight job.", s.sched.coalesced.Load)
	reg.CounterFunc("hornet_jobs_remote_total", "Jobs completed on the worker fleet.", s.sched.remoteJobs.Load)
	reg.CounterFunc("hornet_jobs_fallback_total", "Jobs the in-process worker took over when the last remote worker left.", s.sched.fallbackJobs.Load)

	// Warmup-snapshot cache.
	reg.CounterFunc("hornet_warmup_cache_hits_total", "Warmups restored from a snapshot.", s.env.warm.Hits)
	reg.CounterFunc("hornet_warmup_cache_misses_total", "Warmups actually simulated.", s.env.warm.Misses)

	// Checkpoint subsystem. The write-error counter reads the same
	// envCounters cell ServerStats reports, so the metric and the JSON
	// stats agree by construction.
	c := s.env.counters
	reg.CounterFunc("hornet_checkpoints_written_total", "Autosaved snapshots written.", c.checkpointsWritten.Load)
	reg.CounterFunc("hornet_checkpoint_write_errors_total", "Failed autosave writes (resume protection degraded).", c.checkpointWriteErr.Load)
	reg.CounterFunc("hornet_runs_resumed_total", "Runs resumed from a snapshot instead of cycle 0.", c.runsResumed.Load)
	reg.CounterFunc("hornet_checkpoint_encode_bytes_total", "Encoded checkpoint snapshot bytes.", c.checkpointBytes.Load)
	reg.GaugeFunc("hornet_checkpoint_encode_seconds_total", "Wall time spent encoding checkpoint snapshots.",
		func() float64 { return float64(c.encodeNS.Load()) / 1e9 })
	reg.GaugeFunc("hornet_checkpoint_save_seconds_total", "Wall time spent writing checkpoint blobs to the store.",
		func() float64 { return float64(c.saveNS.Load()) / 1e9 })

	// Worker fleet.
	reg.GaugeFunc("hornet_fleet_workers_live", "Registered, lease-current workers.",
		func() float64 { return float64(s.fleet.Stats().WorkersLive) })
	reg.CounterFunc("hornet_fleet_workers_joined_total", "Worker registrations.",
		func() uint64 { return s.fleet.Stats().WorkersJoined })
	reg.CounterFunc("hornet_fleet_lease_expiries_total", "Workers declared dead (lease expiry, deregistration or replacement).",
		func() uint64 { return s.fleet.Stats().WorkersLost })
	reg.GaugeFunc("hornet_fleet_capacity", "Aggregate fleet CPU-slot capacity.",
		func() float64 { return float64(s.fleet.Stats().FleetCapacity) })
	reg.GaugeFunc("hornet_fleet_in_use", "Fleet CPU slots currently leased.",
		func() float64 { return float64(s.fleet.Stats().FleetInUse) })
	reg.GaugeFunc("hornet_fleet_tasks_queued", "Tasks waiting for a worker.",
		func() float64 { return float64(s.fleet.Stats().TasksQueued) })
	reg.CounterFunc("hornet_fleet_tasks_dispatched_total", "Task assignments, re-dispatches included.",
		func() uint64 { return s.fleet.Stats().TasksDispatched })
	reg.CounterFunc("hornet_fleet_tasks_requeued_total", "Tasks migrated back to the queue after a worker died.",
		func() uint64 { return s.fleet.Stats().TasksRequeued })
	reg.CounterFunc("hornet_fleet_tasks_completed_total", "Tasks completed by workers.",
		func() uint64 { return s.fleet.Stats().TasksCompleted })
	reg.CounterFunc("hornet_fleet_shard_rollbacks_total", "Shard-group epoch rollbacks.",
		func() uint64 { return s.fleet.Stats().ShardRollbacks })
	reg.CounterFunc("hornet_fleet_checkpoint_bytes_total", "Checkpoint blob bytes accepted from workers.",
		func() uint64 { return s.fleet.Stats().CheckpointBytes })
	reg.CounterFunc("hornet_fleet_tasks_adopted_total", "Restored tasks re-adopted in place by their pre-restart executor.",
		func() uint64 { return s.fleet.Stats().TasksAdopted })

	// Write-ahead job journal (all zero without -journal-dir).
	reg.CounterFunc("hornet_journal_records_total", "Records appended to the job journal.",
		func() uint64 { return s.journalStats().Appended })
	reg.CounterFunc("hornet_journal_compactions_total", "Job-journal compactions.",
		func() uint64 { return s.journalStats().Compactions })
	reg.GaugeFunc("hornet_journal_live_records", "Journal records appended since the last compaction.",
		func() float64 { return float64(s.journalStats().LiveRecords) })
	reg.CounterFunc("hornet_journal_errors_total", "Failed journal appends or compactions (durability degraded).", s.journalErrs.Load)
	reg.CounterFunc("hornet_jobs_restored_total", "Jobs rebuilt from the journal at startup.", s.jobsRestored.Load)

	// Engine instrumentation (per-chunk increments from running jobs).
	m.engine = obs.NewEngineSeries(reg)

	// Stall watchdog and trace-timeline accounting.
	reg.CounterFunc("hornet_job_stalls_total", "Stall episodes: running jobs with no forward progress, or jobs queued unserved, for the watchdog window.", s.jobStalls.Load)
	reg.CounterFunc("hornet_trace_dropped_events_total", "Trace-timeline events dropped by the per-job event cap.",
		func() uint64 {
			total := s.traceDroppedExpired.Load()
			for _, j := range s.jobs.all() {
				total += uint64(j.trace.Dropped())
			}
			return total
		})

	// Hottest NoC links across running jobs, from the latest merged
	// telemetry snapshots. Rendered at scrape time (GaugeSetFunc), so
	// finished jobs' series disappear instead of going stale.
	reg.GaugeSetFunc("hornet_noc_link_occupancy_flits",
		"Buffer occupancy of the busiest NoC links per running job (top "+strconv.Itoa(topLinkSeries)+" by flits queued).",
		func() []obs.GaugeSample {
			var out []obs.GaugeSample
			for _, j := range s.jobs.all() {
				info := j.Info()
				if info.State != StateRunning || info.Telemetry == nil {
					continue
				}
				for _, l := range info.Telemetry.TopLinks(topLinkSeries) {
					out = append(out, obs.GaugeSample{
						Labels: []obs.Label{
							obs.L("job", info.ID),
							obs.L("from", strconv.Itoa(l.From)),
							obs.L("to", strconv.Itoa(l.To)),
						},
						Value: float64(l.Occupancy),
					})
				}
			}
			return out
		})

	return m
}

// topLinkSeries bounds the hottest-links exposition: per running job,
// only the K busiest links become /metrics series — a 16x16 torus has
// over a thousand directed links, and a scrape surface that large per
// job helps nobody.
const topLinkSeries = 8

// observeHTTP records one served request under its route pattern.
func (m *serveMetrics) observeHTTP(route string, code int, dur time.Duration) {
	m.reg.Counter("hornet_http_requests_total", "HTTP requests by route pattern and status code.",
		obs.L("route", route), obs.L("code", strconv.Itoa(code))).Inc()
	m.reg.Histogram("hornet_http_request_seconds", "HTTP request latency by route pattern.", nil,
		obs.L("route", route)).ObserveDuration(dur)
}

// statusWriter captures the response status for the metrics middleware
// while staying transparent to streaming handlers (SSE needs Flush).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
