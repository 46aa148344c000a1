package obs

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// SimProbe collects engine-level timing: total cycles and wall time
// (cycles/sec) and per-partition compute vs. barrier-wait time. A probe
// is attached to an engine with Engine.SetProbe; a nil probe costs the
// engine exactly one predictable branch per phase and zero allocations.
//
// All counters are cumulative across runs so chunked (checkpointing)
// executions aggregate naturally; Snapshot renders a consistent-enough
// view for live reporting (fields are individually atomic).
type SimProbe struct {
	id uint64

	runs    atomic.Uint64
	cycles  atomic.Uint64
	skipped atomic.Uint64
	wallNS  atomic.Int64

	mu    sync.Mutex
	parts []*PartitionProbe
}

// PartitionProbe accumulates one engine worker's timing split (compute
// includes chunks it took over from other spans). The
// engine holds the pointer for a whole run, so per-cycle updates are
// two atomic adds, no map lookups and no allocation.
type PartitionProbe struct {
	cycles    atomic.Uint64
	computeNS atomic.Int64
	barrierNS atomic.Int64
	parks     atomic.Uint64
}

// AddCompute, AddBarrier and AddCycles are the engine-side recording
// hooks.
func (p *PartitionProbe) AddCompute(d time.Duration) { p.computeNS.Add(int64(d)) }
func (p *PartitionProbe) AddCycles(n uint64)         { p.cycles.Add(n) }

// AddBarrier records one barrier wait of length d; parked says the wait
// outlasted the barrier's polling bound and the worker went to sleep.
func (p *PartitionProbe) AddBarrier(d time.Duration, parked bool) {
	p.barrierNS.Add(int64(d))
	if parked {
		p.parks.Add(1)
	}
}

// NewSimProbe returns an empty probe with a random ID of 53 bits (exact in
// any JSON number reader), so the snapshots of two executions — in one
// process or in two — never pass for one probe's.
func NewSimProbe() *SimProbe { return &SimProbe{id: rand.Uint64N(1 << 53)} }

// Partition returns the accumulator for engine worker w of n. Called once
// per worker per Run (not per cycle); the slice grows lazily and
// accumulators persist across runs.
func (p *SimProbe) Partition(w, n int) *PartitionProbe {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.parts) < n {
		p.parts = append(p.parts, &PartitionProbe{})
	}
	return p.parts[w]
}

// RunDone folds one Engine.Run result into the probe.
func (p *SimProbe) RunDone(cycles, skipped uint64, wall time.Duration) {
	p.runs.Add(1)
	p.cycles.Add(cycles)
	p.skipped.Add(skipped)
	p.wallNS.Add(int64(wall))
}

// ProbeSnapshot is a point-in-time rendering of a SimProbe, embedded
// in JobInfo and SSE "engine" events and pushed over the fleet wire.
type ProbeSnapshot struct {
	// Probe is the ID of the probe that took the snapshot (EngineFold).
	Probe         uint64  `json:"probe,omitempty"`
	Runs          uint64  `json:"runs"`
	Cycles        uint64  `json:"cycles"`
	SkippedCycles uint64  `json:"skipped_cycles,omitempty"`
	WallMS        float64 `json:"wall_ms"`
	CyclesPerSec  float64 `json:"cycles_per_sec"`

	Partitions []PartitionSnapshot `json:"partitions,omitempty"`
}

// PartitionSnapshot is one worker's share of a ProbeSnapshot.
type PartitionSnapshot struct {
	Worker    int     `json:"worker"`
	Cycles    uint64  `json:"cycles"`
	ComputeMS float64 `json:"compute_ms"`
	BarrierMS float64 `json:"barrier_ms"`
	// BarrierParks counts the waits behind BarrierMS that gave up polling
	// and slept: many parks per cycle mean long imbalances (or a host
	// without a CPU per worker), few parks next to a large BarrierMS mean
	// the wait is being spent polling.
	BarrierParks uint64 `json:"barrier_parks"`
}

// Snapshot renders the probe's current totals.
func (p *SimProbe) Snapshot() ProbeSnapshot {
	s := ProbeSnapshot{
		Probe:         p.id,
		Runs:          p.runs.Load(),
		Cycles:        p.cycles.Load(),
		SkippedCycles: p.skipped.Load(),
		WallMS:        float64(p.wallNS.Load()) / 1e6,
	}
	if wall := p.wallNS.Load(); wall > 0 {
		s.CyclesPerSec = float64(s.Cycles) / (float64(wall) / 1e9)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for w, pp := range p.parts {
		s.Partitions = append(s.Partitions, PartitionSnapshot{
			Worker:       w,
			Cycles:       pp.cycles.Load(),
			ComputeMS:    float64(pp.computeNS.Load()) / 1e6,
			BarrierMS:    float64(pp.barrierNS.Load()) / 1e6,
			BarrierParks: pp.parks.Load(),
		})
	}
	return s
}

// BarrierWallMS sums barrier-wait time across partitions; ComputeWallMS
// likewise for compute and BarrierParks for parked waits. Convenient for
// histogram and counter deltas.
func (s ProbeSnapshot) BarrierWallMS() float64 {
	var t float64
	for _, p := range s.Partitions {
		t += p.BarrierMS
	}
	return t
}

// BarrierParks sums parked barrier waits across partitions.
func (s ProbeSnapshot) BarrierParks() uint64 {
	var n uint64
	for _, p := range s.Partitions {
		n += p.BarrierParks
	}
	return n
}

// ComputeWallMS sums compute time across partitions.
func (s ProbeSnapshot) ComputeWallMS() float64 {
	var t float64
	for _, p := range s.Partitions {
		t += p.ComputeMS
	}
	return t
}

// EngineDelta is what the engine series count: the totals of a snapshot,
// or the increments between two.
type EngineDelta struct {
	Cycles, Parks      uint64
	ComputeS, BarrierS float64
}

func engineTotals(s ProbeSnapshot) EngineDelta {
	return EngineDelta{
		Cycles:   s.Cycles,
		Parks:    s.BarrierParks(),
		ComputeS: s.ComputeWallMS() / 1e3,
		BarrierS: s.BarrierWallMS() / 1e3,
	}
}

// EngineFold turns the probe snapshots one job (or one task) reports into
// increments of the engine series. Runs of one execution snapshot and
// deliver without a shared lock, so the snapshots of one probe arrive in
// any order: one with fewer cycles than the newest seen is stale and Fold
// ignores it; otherwise each total counts from its own high-water mark, so
// the increments of a probe sum to its newest totals. A snapshot of a new
// probe — the execution migrated, or fell back to another backend —
// counts whole. Safe for concurrent use.
type EngineFold struct {
	mu    sync.Mutex
	probe uint64
	seen  EngineDelta // high-water marks of the current probe's totals
}

// Fold returns snap's increments, or false when snap is stale.
func (f *EngineFold) Fold(snap ProbeSnapshot) (EngineDelta, bool) {
	t := engineTotals(snap)
	f.mu.Lock()
	defer f.mu.Unlock()
	if snap.Probe != f.probe {
		f.probe, f.seen = snap.Probe, t
		return t, true
	}
	s := f.seen
	if t.Cycles < s.Cycles {
		return EngineDelta{}, false
	}
	f.seen = EngineDelta{
		Cycles:   t.Cycles,
		Parks:    max(t.Parks, s.Parks),
		ComputeS: max(t.ComputeS, s.ComputeS),
		BarrierS: max(t.BarrierS, s.BarrierS),
	}
	n := f.seen
	return EngineDelta{
		Cycles:   n.Cycles - s.Cycles,
		Parks:    n.Parks - s.Parks,
		ComputeS: n.ComputeS - s.ComputeS,
		BarrierS: n.BarrierS - s.BarrierS,
	}, true
}

// EngineSeries is the hornet_engine_* family the coordinator and the
// workers both expose, fed by EngineFold increments.
type EngineSeries struct {
	cycles, parks    *Counter
	compute, barrier *Histogram
}

// NewEngineSeries registers the engine series in reg.
func NewEngineSeries(reg *Registry) *EngineSeries {
	return &EngineSeries{
		cycles:  reg.Counter("hornet_engine_cycles_total", "Simulated cycles executed by the probed engines."),
		compute: reg.Histogram("hornet_engine_compute_seconds", "Per-chunk engine compute time (summed across worker threads).", nil),
		barrier: reg.Histogram("hornet_engine_barrier_wait_seconds", "Per-chunk barrier wait time (summed across worker threads).", nil),
		parks:   reg.Counter("hornet_engine_barrier_parks_total", "Barrier waits that outlasted the polling bound and put the worker thread to sleep."),
	}
}

// Observe records one fold's increments: the counters add, and each
// histogram takes one observation when its time moved.
func (e *EngineSeries) Observe(d EngineDelta) {
	e.cycles.Add(d.Cycles)
	e.parks.Add(d.Parks)
	if d.ComputeS > 0 {
		e.compute.Observe(d.ComputeS)
	}
	if d.BarrierS > 0 {
		e.barrier.Observe(d.BarrierS)
	}
}
