// Package traffic implements HORNET's synthetic network-only workloads:
// the classic address permutations (transpose, bit-complement, shuffle,
// tornado, neighbour), uniform-random and hotspot traffic, and an
// H.264-decoder-style constant-bit-rate profile, each drivable by a
// Bernoulli or bursty injection process (paper Table I, Figs 6-7).
package traffic

import (
	"hornet/internal/config"
	"hornet/internal/noc"
	"hornet/internal/sim"
	"hornet/internal/snapshot"
	"hornet/internal/topology"
)

// Pattern maps a source node to a destination for each generated packet.
// Implementations must be deterministic given the RNG stream.
type Pattern interface {
	// Dst returns the destination for a packet from src, or src itself to
	// indicate "no packet" (self-addressed traffic is skipped).
	Dst(src noc.NodeID, rng *sim.RNG) noc.NodeID
}

// permutation is a fixed node->node map, evaluated per packet: each node
// asks only for its own destination, so no table over all nodes is kept.
type permutation func(src int) int

func (p permutation) Dst(src noc.NodeID, _ *sim.RNG) noc.NodeID { return noc.NodeID(p(int(src))) }

// uniformPattern draws destinations uniformly over all other nodes.
type uniformPattern struct{ n int }

func (u *uniformPattern) Dst(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	d := noc.NodeID(rng.Intn(u.n - 1))
	if d >= src {
		d++
	}
	return d
}

// hotspotPattern sends a fraction of traffic to designated hot nodes and
// the rest uniformly.
type hotspotPattern struct {
	uniformPattern
	hot  []noc.NodeID
	frac float64
}

func (h *hotspotPattern) Dst(src noc.NodeID, rng *sim.RNG) noc.NodeID {
	if rng.Bernoulli(h.frac) {
		if d := h.hot[rng.Intn(len(h.hot))]; d != src {
			return d
		}
	}
	return h.uniformPattern.Dst(src, rng)
}

// Partner returns p's fixed destination map when p is a permutation (one
// destination per source, the source itself for none); ok is false when p
// may send from any node to any other.
func Partner(p Pattern) (dst func(src int) int, ok bool) {
	if pp, ok := p.(permutation); ok {
		return pp, true
	}
	return nil, false
}

// NewPattern builds the named pattern over the given topology: the one
// place a traffic entry becomes the flows it makes. An error is a
// *config.FieldError naming the entry's field at fault.
func NewPattern(tc config.TrafficConfig, t *topology.Topology) (Pattern, error) {
	n := t.Nodes()
	switch tc.Pattern {
	case config.PatternUniform:
		return &uniformPattern{n: n}, nil
	case config.PatternHotspot:
		hot := make([]noc.NodeID, len(tc.HotNodes))
		for i, h := range tc.HotNodes {
			hot[i] = noc.NodeID(h)
		}
		frac := tc.HotFrac
		if frac <= 0 {
			frac = 0.5
		}
		return &hotspotPattern{uniformPattern{n}, hot, frac}, nil
	case config.PatternTranspose:
		return permutation(func(src int) int {
			x, y := t.XY(noc.NodeID(src))
			if x >= t.Height || y >= t.Width {
				return src // non-square meshes: fixed point outside the square core
			}
			return int(t.NodeAt(y, x))
		}), nil
	case config.PatternBitComplement:
		if n&(n-1) != 0 {
			return nil, config.Errorf("pattern", "traffic: bit-complement needs a power-of-two node count, got %d", n)
		}
		return permutation(func(src int) int { return (n - 1) ^ src }), nil
	case config.PatternShuffle:
		if n&(n-1) != 0 {
			return nil, config.Errorf("pattern", "traffic: shuffle needs a power-of-two node count, got %d", n)
		}
		bits := 0
		for 1<<bits < n {
			bits++
		}
		return permutation(func(src int) int {
			return ((src << 1) | (src >> (bits - 1))) & (n - 1)
		}), nil
	case config.PatternTornado:
		return permutation(func(src int) int {
			x, y := t.XY(noc.NodeID(src))
			k := t.Width
			return int(t.NodeAt((x+(k+1)/2-1)%k, y))
		}), nil
	case config.PatternNeighbor:
		return permutation(func(src int) int {
			x, y := t.XY(noc.NodeID(src))
			return int(t.NodeAt((x+1)%t.Width, y))
		}), nil
	case config.PatternH264:
		// The H.264 decoder profile: a pipeline between stages mapped
		// across nodes, each node's fixed partner a mid-distance hop.
		if tc.InjectionRate <= 0 {
			return nil, config.Errorf("injection_rate", "traffic: h264 profile needs injection_rate > 0")
		}
		return permutation(func(src int) int { return (src + n/3 + 1) % n }), nil
	default:
		return nil, config.Errorf("pattern", "traffic: unknown pattern %q", tc.Pattern)
	}
}

// Offer is the router-injection callback handed to generators each cycle.
type Offer func(noc.Packet)

// Generator is one node's traffic source in network-only mode.
type Generator struct {
	node    noc.NodeID
	pattern Pattern
	rng     *sim.RNG

	rate     float64
	pktFlits int
	class    uint8

	// Bursty injection: active for burstLen cycles, idle for burstGap.
	burstLen, burstGap int

	// CBR mode (H.264 profile): one packet every period cycles, with a
	// per-node phase offset so nodes do not inject in lockstep.
	cbr    bool
	period uint64
	phase  uint64

	stopped bool
}

// NewGenerator builds a node's synthetic source from its traffic config
// and the pattern NewPattern made of it, which every node's generator of
// the entry shares.
func NewGenerator(node noc.NodeID, p Pattern, tc config.TrafficConfig, avgFlits int, rng *sim.RNG) *Generator {
	g := &Generator{
		node:     node,
		pattern:  p,
		rng:      rng,
		rate:     tc.InjectionRate,
		pktFlits: tc.PacketFlits,
		burstLen: tc.BurstLen,
		burstGap: tc.BurstGap,
	}
	if g.pktFlits <= 0 {
		g.pktFlits = avgFlits
	}
	if tc.Pattern == config.PatternH264 {
		// Low-volume, evenly spaced packets on the fixed flows.
		g.cbr = true
		g.period = max(uint64(1.0/tc.InjectionRate), 1)
		g.phase = uint64(node) % g.period
	}
	return g
}

// Stop halts further injection (used to drain the network at run end).
func (g *Generator) Stop() { g.stopped = true }

// SaveState serializes the generator's mutable state. Everything else
// about a generator is a pure function of (config, cycle, RNG stream),
// and the RNG is the owning tile's, checkpointed with the tile.
func (g *Generator) SaveState(w *snapshot.Writer) {
	w.Bool(g.stopped)
}

// LoadState restores state saved by SaveState.
func (g *Generator) LoadState(r *snapshot.Reader) error {
	g.stopped = r.Bool()
	return r.Err()
}

// Tick implements the tile generator contract: called once per cycle
// during the owning tile's transfer phase.
func (g *Generator) Tick(cycle uint64, offer Offer) {
	if g.stopped {
		return
	}
	if g.cbr {
		if (cycle+g.phase)%g.period == 0 {
			g.emit(offer)
		}
		return
	}
	if g.burstLen > 0 {
		span := uint64(g.burstLen + g.burstGap)
		if cycle%span >= uint64(g.burstLen) {
			return // idle gap between coordinated bursts
		}
	}
	if g.rng.Bernoulli(g.rate) {
		g.emit(offer)
	}
}

func (g *Generator) emit(offer Offer) {
	dst := g.pattern.Dst(g.node, g.rng)
	if dst == g.node {
		return
	}
	offer(noc.Packet{
		Flow:  noc.MakeFlow(g.node, dst, g.class),
		Dst:   dst,
		Flits: g.pktFlits,
	})
}

// NextEvent implements the fast-forward query: the earliest cycle after
// now at which this generator might inject.
func (g *Generator) NextEvent(now uint64) uint64 {
	if g.stopped || (g.rate <= 0 && !g.cbr) {
		return sim.NoEvent
	}
	if g.cbr {
		// Next multiple of period aligned to our phase, strictly after now.
		next := now + 1
		rem := (next + g.phase) % g.period
		if rem != 0 {
			next += g.period - rem
		}
		return next
	}
	if g.burstLen > 0 {
		span := uint64(g.burstLen + g.burstGap)
		next := now + 1
		if pos := next % span; pos >= uint64(g.burstLen) {
			next += span - pos // jump to the next burst start
		}
		return next
	}
	return now + 1
}
