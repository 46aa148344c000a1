// Package stats collects per-tile simulation statistics: flit and packet
// counters, in-network latency (accumulated inside flits, per the paper's
// loose-synchronization-safe accounting), per-flow delivery counts, and
// the event counters (buffer reads/writes, crossbar and link transits,
// arbitrations) that drive the power model.
//
// Each tile owns a private Tile so no locking is needed on the hot path;
// Aggregate folds tiles together after (or between) runs.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// LatencyBuckets is the number of power-of-two histogram buckets.
// Bucket i counts samples in [2^i, 2^(i+1)).
const LatencyBuckets = 24

// Tile accumulates statistics for one simulated tile. Not safe for
// concurrent use: a tile is stepped by one worker at a time, handed over
// only at the barrier.
type Tile struct {
	FlitsInjected    uint64
	FlitsDelivered   uint64
	PacketsInjected  uint64
	PacketsDelivered uint64

	// FlitLatencySum is the sum over delivered flits of their accumulated
	// in-network latency (cycles from network ingress to final egress).
	FlitLatencySum uint64
	// PacketLatencySum sums per-packet latencies (head injection to tail
	// delivery, computed from same-clock-domain quantities).
	PacketLatencySum uint64
	MaxPacketLatency uint64

	// Histogram of delivered packet latencies in power-of-two buckets.
	LatencyHist [LatencyBuckets]uint64

	// Power-model event counters.
	BufReads     uint64
	BufWrites    uint64
	XbarTransits uint64
	LinkTransits uint64
	ArbEvents    uint64

	// Per-flow delivery bookkeeping, keyed by raw flow ID. Records are
	// created at the destination tile.
	Flows map[uint32]*FlowRecord

	// HopSum counts total hops of delivered flits (diagnostics).
	HopSum uint64
}

// FlowRecord tracks one flow's delivered traffic at its destination.
type FlowRecord struct {
	PacketsDelivered uint64
	FlitsDelivered   uint64
	LatencySum       uint64
	LastSeq          uint64 // last delivered per-flow packet sequence number (order check)
	OrderViolations  uint64
}

// NewTile returns an empty per-tile statistics block.
func NewTile() *Tile {
	return &Tile{Flows: make(map[uint32]*FlowRecord)}
}

// Reset zeroes all counters (used at the warmup boundary).
func (t *Tile) Reset() {
	*t = Tile{Flows: make(map[uint32]*FlowRecord)}
}

// FlitSample reads the flit counters telemetry samples: injected and
// delivered totals plus the mean in-network flit latency so far. Must
// only be called while the tile's worker thread is quiescent (the
// engine's barrier leader qualifies) — the counters are plain fields.
func (t *Tile) FlitSample() (injected, delivered uint64, avgLatency float64) {
	if t.FlitsDelivered > 0 {
		avgLatency = float64(t.FlitLatencySum) / float64(t.FlitsDelivered)
	}
	return t.FlitsInjected, t.FlitsDelivered, avgLatency
}

// Flow returns (creating if needed) the record for a flow ID.
func (t *Tile) Flow(id uint32) *FlowRecord {
	r := t.Flows[id]
	if r == nil {
		r = &FlowRecord{}
		t.Flows[id] = r
	}
	return r
}

// RecordPacketDelivered folds a completed packet into the tile stats.
func (t *Tile) RecordPacketDelivered(flow uint32, seq uint64, latency uint64) {
	t.PacketsDelivered++
	t.PacketLatencySum += latency
	if latency > t.MaxPacketLatency {
		t.MaxPacketLatency = latency
	}
	b := bucketOf(latency)
	t.LatencyHist[b]++
	r := t.Flow(flow)
	r.PacketsDelivered++
	r.LatencySum += latency
	if seq != 0 {
		if seq <= r.LastSeq {
			r.OrderViolations++
		}
		r.LastSeq = seq
	}
}

func bucketOf(v uint64) int {
	b := 0
	for v > 1 && b < LatencyBuckets-1 {
		v >>= 1
		b++
	}
	return b
}

// Summary is an aggregated view across tiles.
type Summary struct {
	FlitsInjected    uint64
	FlitsDelivered   uint64
	PacketsInjected  uint64
	PacketsDelivered uint64
	AvgFlitLatency   float64
	AvgPacketLatency float64
	MaxPacketLatency uint64
	AvgHops          float64
	BufReads         uint64
	BufWrites        uint64
	XbarTransits     uint64
	LinkTransits     uint64
	ArbEvents        uint64
	LatencyHist      [LatencyBuckets]uint64
	Flows            map[uint32]FlowRecord
}

// Aggregate folds per-tile statistics into a summary.
func Aggregate(tiles []*Tile) Summary {
	s := Summary{Flows: make(map[uint32]FlowRecord)}
	var flitLatSum, pktLatSum, hopSum uint64
	for _, t := range tiles {
		s.FlitsInjected += t.FlitsInjected
		s.FlitsDelivered += t.FlitsDelivered
		s.PacketsInjected += t.PacketsInjected
		s.PacketsDelivered += t.PacketsDelivered
		flitLatSum += t.FlitLatencySum
		pktLatSum += t.PacketLatencySum
		hopSum += t.HopSum
		if t.MaxPacketLatency > s.MaxPacketLatency {
			s.MaxPacketLatency = t.MaxPacketLatency
		}
		s.BufReads += t.BufReads
		s.BufWrites += t.BufWrites
		s.XbarTransits += t.XbarTransits
		s.LinkTransits += t.LinkTransits
		s.ArbEvents += t.ArbEvents
		for i, v := range t.LatencyHist {
			s.LatencyHist[i] += v
		}
		for id, r := range t.Flows {
			agg := s.Flows[id]
			agg.PacketsDelivered += r.PacketsDelivered
			agg.FlitsDelivered += r.FlitsDelivered
			agg.LatencySum += r.LatencySum
			agg.OrderViolations += r.OrderViolations
			s.Flows[id] = agg
		}
	}
	if s.FlitsDelivered > 0 {
		s.AvgFlitLatency = float64(flitLatSum) / float64(s.FlitsDelivered)
		s.AvgHops = float64(hopSum) / float64(s.FlitsDelivered)
	}
	if s.PacketsDelivered > 0 {
		s.AvgPacketLatency = float64(pktLatSum) / float64(s.PacketsDelivered)
	}
	return s
}

// Throughput returns delivered flits per node per cycle.
func (s Summary) Throughput(nodes int, cycles uint64) float64 {
	if nodes == 0 || cycles == 0 {
		return 0
	}
	return float64(s.FlitsDelivered) / float64(nodes) / float64(cycles)
}

// StarvedFlows returns flow IDs whose delivered packet count is below
// frac times the mean across flows — the paper's §IV-A starvation metric
// for long-path flows in large congested meshes.
func (s Summary) StarvedFlows(frac float64) []uint32 {
	if len(s.Flows) == 0 {
		return nil
	}
	var total uint64
	for _, r := range s.Flows {
		total += r.PacketsDelivered
	}
	mean := float64(total) / float64(len(s.Flows))
	var out []uint32
	for id, r := range s.Flows {
		if float64(r.PacketsDelivered) < frac*mean {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PercentError returns |a-b| / b * 100 (b is the reference value).
func PercentError(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b) * 100
}

// Accuracy returns the paper's Fig 6b accuracy metric: 100% minus the
// percentage deviation of a measured latency from the cycle-accurate
// reference, floored at zero.
func Accuracy(measured, reference float64) float64 {
	acc := 100 - PercentError(measured, reference)
	if acc < 0 {
		return 0
	}
	return acc
}

// Report renders a human-readable multi-line summary.
func (s Summary) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packets: injected=%d delivered=%d\n", s.PacketsInjected, s.PacketsDelivered)
	fmt.Fprintf(&b, "flits:   injected=%d delivered=%d\n", s.FlitsInjected, s.FlitsDelivered)
	fmt.Fprintf(&b, "latency: avg-flit=%.2f avg-packet=%.2f max-packet=%d\n",
		s.AvgFlitLatency, s.AvgPacketLatency, s.MaxPacketLatency)
	fmt.Fprintf(&b, "hops:    avg=%.2f\n", s.AvgHops)
	fmt.Fprintf(&b, "events:  bufR=%d bufW=%d xbar=%d link=%d arb=%d\n",
		s.BufReads, s.BufWrites, s.XbarTransits, s.LinkTransits, s.ArbEvents)
	return b.String()
}
