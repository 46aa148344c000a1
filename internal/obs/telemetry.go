package obs

import "sort"

// TelemetrySnapshot is a point-in-time view of the whole *simulated
// machine* — as opposed to SimProbe, which times the simulator. It is
// sampled at engine sync points (the other workers parked at the barrier,
// so plain counter reads are race-free) and at the end of every run,
// carried over the fleet wire in TaskEvents, and served live over the
// job's telemetry SSE stream.
//
// Counters are cumulative over the measured window (stats reset at the
// warmup boundary), so the final snapshot of a run agrees with the
// result document's totals.
type TelemetrySnapshot struct {
	// Cycle is the simulated-cycle position of the sample; SkippedCycles
	// counts cycles fast-forwarded past rather than simulated, so the
	// pair locates the sample on the fast-forward vs measured axis.
	Cycle         uint64 `json:"cycle"`
	SkippedCycles uint64 `json:"skipped_cycles,omitempty"`

	Tiles []TileTelemetry `json:"tiles,omitempty"`
	Links []LinkTelemetry `json:"links,omitempty"`
}

// TileTelemetry is one tile's flit counters at the sample point.
type TileTelemetry struct {
	Tile           int     `json:"tile"`
	FlitsInjected  uint64  `json:"flits_injected"`
	FlitsDelivered uint64  `json:"flits_delivered"`
	AvgFlitLatency float64 `json:"avg_flit_latency,omitempty"`
}

// LinkTelemetry is the instantaneous ingress VC-buffer occupancy of one
// directed link (flits queued at To's input port facing From).
type LinkTelemetry struct {
	From      int `json:"from"`
	To        int `json:"to"`
	Occupancy int `json:"occupancy"`
	Capacity  int `json:"capacity"`
}

// FlitsInjected sums the per-tile injection counters.
func (s TelemetrySnapshot) FlitsInjected() uint64 {
	var n uint64
	for _, t := range s.Tiles {
		n += t.FlitsInjected
	}
	return n
}

// FlitsDelivered sums the per-tile delivery counters.
func (s TelemetrySnapshot) FlitsDelivered() uint64 {
	var n uint64
	for _, t := range s.Tiles {
		n += t.FlitsDelivered
	}
	return n
}

// BufferedFlits sums link occupancy across the sampled span.
func (s TelemetrySnapshot) BufferedFlits() int {
	var n int
	for _, l := range s.Links {
		n += l.Occupancy
	}
	return n
}

// TopLinks returns the k links with the highest occupancy, ties broken
// by (From, To) so the ordering is deterministic.
func (s TelemetrySnapshot) TopLinks(k int) []LinkTelemetry {
	links := append([]LinkTelemetry(nil), s.Links...)
	sort.Slice(links, func(a, b int) bool {
		if links[a].Occupancy != links[b].Occupancy {
			return links[a].Occupancy > links[b].Occupancy
		}
		if links[a].From != links[b].From {
			return links[a].From < links[b].From
		}
		return links[a].To < links[b].To
	})
	if k < len(links) {
		links = links[:k]
	}
	return links
}
