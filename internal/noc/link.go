package noc

import "sync/atomic"

// Link models the pair of opposing channels between two neighbouring
// routers. With Bidirectional enabled, a modeled hardware arbiter
// reassigns the total bandwidth between the two directions every cycle
// based on local traffic pressure — the paper's bandwidth-adaptive links
// (§II-A4, after Cho et al.): each side publishes its demand (flits ready
// to traverse toward the link), and the arbiter splits the aggregate
// bandwidth in proportion to the demands, each capped by the free buffer
// space at the opposite ingress.
//
// With Bidirectional disabled each direction simply owns its fixed
// bandwidth. As with a flit, nothing one side writes is read before the
// next cycle: each side runs the arbiter at the start of its positive edge
// (Router.arbitrateLinks) on both sides' demand after the last cycle, side
// 0's free space after it and side 1's after the cycle before, and keeps
// its own grant. The sides count a space differently — their own ingress,
// or the far one through their credits — and agree.
type Link struct {
	// BandwidthPerDir is the fixed per-direction bandwidth (flits/cycle).
	BandwidthPerDir int
	// Bidirectional enables the adaptive arbiter over 2*BandwidthPerDir.
	Bidirectional bool

	// demand[side][cycle&1] is the number of SA-eligible flits side's
	// router had, after cycle, wanting to cross toward the other side.
	demand [2][2]atomic.Int64
	// space1[cycle&1] is the free-slot count of side 1's ingress after
	// cycle, which both sides store; negative after a restore, when the
	// grants in place are already the next cycle's.
	space1 [2]atomic.Int64
	// grant[side] is the bandwidth side may use this cycle toward the other
	// side; only side's router writes it.
	grant [2]int64
	// in[side] is side's ingress port: the buffers the other side's flits
	// land in.
	in [2][]*VCBuffer
}

// NewLink builds a link with the given per-direction bandwidth.
func NewLink(bandwidthPerDir int, bidirectional bool) *Link {
	bw := int64(bandwidthPerDir)
	return &Link{BandwidthPerDir: bandwidthPerDir, Bidirectional: bidirectional, grant: [2]int64{bw, bw}}
}

// Grant returns the bandwidth available this cycle for traffic flowing
// out of side (0 or 1).
func (l *Link) Grant(side int) int {
	if !l.Bidirectional {
		return l.BandwidthPerDir
	}
	return int(l.grant[side])
}

// ReportDemand publishes side's demand after cycle.
func (l *Link) ReportDemand(side int, cycle uint64, flitsReady int) {
	if l.Bidirectional {
		l.demand[side][cycle&1].Store(int64(flitsReady))
	}
}

// arbitrate sets the grant side may use in the cycle after prev, its
// router's last: own is the free space of side's ingress after prev and
// far that of the other side's.
func (l *Link) arbitrate(side int, prev uint64, own, far int) {
	space := [2]int64{int64(far), int64(far)}
	space[side] = int64(own)
	if g, ok := l.split(prev, space[0]); ok {
		l.grant[side] = g[side]
	}
	l.space1[prev&1].Store(space[1])
}

// split is the arbiter's decision for the cycle after prev, given side 0's
// free space after prev; false if a restore already made it.
func (l *Link) split(prev uint64, space0 int64) ([2]int64, bool) {
	space1 := l.space1[(prev-1)&1].Load()
	if space1 < 0 {
		return [2]int64{}, false
	}
	total := int64(2 * l.BandwidthPerDir)
	// Effective demand out of side s is capped by the space available at
	// the opposite ingress: bandwidth granted beyond that is wasted.
	d0 := min(l.demand[0][prev&1].Load(), space1)
	d1 := min(l.demand[1][prev&1].Load(), space0)
	switch {
	case d0 == 0 && d1 == 0:
		// Idle: park at the symmetric split.
		return [2]int64{total / 2, total / 2}, true
	case d1 == 0:
		return [2]int64{total, 0}, true
	case d0 == 0:
		return [2]int64{0, total}, true
	}
	g0 := min(max(total*d0/(d0+d1), 1), total-1)
	return [2]int64{g0, total - g0}, true
}

// freeSlots is the free space across bufs, an ingress port, but for the
// flits not visible before cycle+1 (consumer side, or at a quiescent
// point). VisibleAt is monotone along a queue, so those are at the tail.
func freeSlots(bufs []*VCBuffer, cycle uint64) int {
	free := 0
	for _, b := range bufs {
		n := b.Len()
		for n > 0 && b.flitAt(n-1).VisibleAt > cycle {
			n--
		}
		free += b.Capacity() - n
	}
	return free
}
