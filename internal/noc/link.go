package noc

import "sync/atomic"

// Link models the pair of opposing channels between two neighbouring
// routers. With Bidirectional enabled, a modeled hardware arbiter
// reassigns the total bandwidth between the two directions every cycle
// based on local traffic pressure — the paper's bandwidth-adaptive links
// (§II-A4, after Cho et al.): each side publishes its demand (flits ready
// to traverse toward the link) and the free buffer space at its ingress,
// and the arbiter splits the aggregate bandwidth proportionally.
//
// With Bidirectional disabled each direction simply owns its fixed
// bandwidth. All cross-thread fields are atomics. Side 0 arbitrates in its
// commit phase, barrier-separated from the transfer phase that wrote the
// demands. Both sides commit free space in that same phase, into a cell
// with one slot per cycle parity; the arbiter reads its own slot for this
// cycle and the far side's for the previous one, so what it sees never
// depends on which side's thread committed first.
type Link struct {
	// BandwidthPerDir is the fixed per-direction bandwidth (flits/cycle).
	BandwidthPerDir int
	// Bidirectional enables the adaptive arbiter over 2*BandwidthPerDir.
	Bidirectional bool

	// demand[side] is written by side's router during PhaseTransfer:
	// number of SA-eligible flits wanting to cross toward the other side.
	demand [2]atomic.Int64
	// space[side][cycle&1] is the free-slot count of side's ingress port
	// across all VCs, committed on cycle.
	space [2][2]atomic.Int64
	// grant[side] is the bandwidth side may use next cycle toward the
	// other side; initialized to BandwidthPerDir.
	grant [2]atomic.Int64
}

// NewLink builds a link with the given per-direction bandwidth.
func NewLink(bandwidthPerDir int, bidirectional bool) *Link {
	l := &Link{BandwidthPerDir: bandwidthPerDir, Bidirectional: bidirectional}
	l.grant[0].Store(int64(bandwidthPerDir))
	l.grant[1].Store(int64(bandwidthPerDir))
	return l
}

// Grant returns the bandwidth available this cycle for traffic flowing
// out of side (0 or 1).
func (l *Link) Grant(side int) int {
	if !l.Bidirectional {
		return l.BandwidthPerDir
	}
	return int(l.grant[side].Load())
}

// ReportDemand publishes side's transfer-phase demand.
func (l *Link) ReportDemand(side int, flitsReady int) {
	if l.Bidirectional {
		l.demand[side].Store(int64(flitsReady))
	}
}

// ReportSpace publishes the ingress free space side committed on cycle.
func (l *Link) ReportSpace(side int, cycle uint64, freeSlots int) {
	if l.Bidirectional {
		l.space[side][cycle&1].Store(int64(freeSlots))
	}
}

// Arbitrate reassigns per-direction bandwidth for the cycle after cycle.
// Called during side 0's commit phase on cycle, after its ReportSpace.
func (l *Link) Arbitrate(cycle uint64) {
	if !l.Bidirectional {
		return
	}
	total := int64(2 * l.BandwidthPerDir)
	// Effective demand out of side s is capped by the space available at
	// the opposite ingress: bandwidth granted beyond that is wasted. The
	// far side's space is a cycle old, even where it commits first in tile
	// order (ring and torus wraparound links, A > B).
	d0 := min(l.demand[0].Load(), l.space[1][(cycle-1)&1].Load())
	d1 := min(l.demand[1].Load(), l.space[0][cycle&1].Load())
	switch {
	case d0 == 0 && d1 == 0:
		// Idle: park at the symmetric split.
		l.grant[0].Store(int64(l.BandwidthPerDir))
		l.grant[1].Store(int64(l.BandwidthPerDir))
	case d1 == 0:
		l.grant[0].Store(total)
		l.grant[1].Store(0)
	case d0 == 0:
		l.grant[0].Store(0)
		l.grant[1].Store(total)
	default:
		g0 := total * d0 / (d0 + d1)
		if g0 < 1 {
			g0 = 1
		}
		if g0 > total-1 {
			g0 = total - 1
		}
		l.grant[0].Store(g0)
		l.grant[1].Store(total - g0)
	}
}

// freeSlots is the free space across bufs, the value a side reports.
func freeSlots(bufs []*VCBuffer) int {
	free := 0
	for _, b := range bufs {
		free += b.Capacity() - b.Len()
	}
	return free
}
