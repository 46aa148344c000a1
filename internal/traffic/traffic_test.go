package traffic

import (
	"testing"

	"hornet/internal/config"
	"hornet/internal/noc"
	"hornet/internal/sim"
	"hornet/internal/topology"
)

func mesh(t *testing.T, w, h int) *topology.Topology {
	t.Helper()
	topo, err := topology.New(config.TopologyConfig{Kind: config.TopoMesh, Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestPermutationPatterns(t *testing.T) {
	topo := mesh(t, 8, 8)
	rng := sim.NewRNG(1)
	cases := []struct {
		pattern string
		src     noc.NodeID
		want    noc.NodeID
	}{
		{config.PatternTranspose, 1, 8}, // (1,0) -> (0,1)
		{config.PatternTranspose, 8, 1},
		{config.PatternBitComplement, 0, 63},
		{config.PatternBitComplement, 5, 58},
		{config.PatternShuffle, 1, 2},  // rotate-left on 6 bits
		{config.PatternShuffle, 32, 1}, // MSB wraps to LSB
		{config.PatternNeighbor, 7, 0}, // (7,0) -> (0,0)
		{config.PatternTornado, 0, 3},  // (0+ceil(8/2)-1) mod 8 = 3
	}
	for _, c := range cases {
		p, err := NewPattern(config.TrafficConfig{Pattern: c.pattern}, topo)
		if err != nil {
			t.Fatalf("%s: %v", c.pattern, err)
		}
		if got := p.Dst(c.src, rng); got != c.want {
			t.Errorf("%s: Dst(%d) = %d, want %d", c.pattern, c.src, got, c.want)
		}
	}
}

func TestUniformNeverSelf(t *testing.T) {
	topo := mesh(t, 4, 4)
	p, err := NewPattern(config.TrafficConfig{Pattern: config.PatternUniform}, topo)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(2)
	for i := 0; i < 10_000; i++ {
		src := noc.NodeID(i % 16)
		if p.Dst(src, rng) == src {
			t.Fatal("uniform pattern returned self")
		}
	}
}

func TestBitCompRequiresPowerOfTwo(t *testing.T) {
	topo := mesh(t, 3, 3)
	if _, err := NewPattern(config.TrafficConfig{Pattern: config.PatternBitComplement}, topo); err == nil {
		t.Fatal("bit-complement on 9 nodes accepted")
	}
}

func TestHotspotBias(t *testing.T) {
	topo := mesh(t, 4, 4)
	p, err := NewPattern(config.TrafficConfig{
		Pattern: config.PatternHotspot, HotNodes: []int{5}, HotFrac: 0.8,
	}, topo)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	hits := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		if p.Dst(0, rng) == 5 {
			hits++
		}
	}
	if frac := float64(hits) / n; frac < 0.7 || frac > 0.9 {
		t.Fatalf("hotspot fraction %.3f, want ~0.8", frac)
	}
}

// generator builds node's source for tc over topo, as a system does.
func generator(t *testing.T, node noc.NodeID, tc config.TrafficConfig, topo *topology.Topology, rng *sim.RNG) *Generator {
	t.Helper()
	p, err := NewPattern(tc, topo)
	if err != nil {
		t.Fatal(err)
	}
	return NewGenerator(node, p, tc, 8, rng)
}

func TestGeneratorBernoulliRate(t *testing.T) {
	topo := mesh(t, 4, 4)
	g := generator(t, 0, config.TrafficConfig{
		Pattern: config.PatternUniform, InjectionRate: 0.1,
	}, topo, sim.NewRNG(4))
	count := 0
	for c := uint64(0); c < 50_000; c++ {
		g.Tick(c, func(p noc.Packet) {
			count++
			if p.Flits != 8 {
				t.Fatalf("packet flits %d, want 8", p.Flits)
			}
		})
	}
	rate := float64(count) / 50_000
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("injection rate %.4f, want ~0.1", rate)
	}
}

func TestBurstGeneratorQuietGaps(t *testing.T) {
	topo := mesh(t, 4, 4)
	g := generator(t, 0, config.TrafficConfig{
		Pattern: config.PatternBitComplement, InjectionRate: 1.0,
		BurstLen: 10, BurstGap: 90,
	}, topo, sim.NewRNG(5))
	for c := uint64(0); c < 300; c++ {
		injected := false
		g.Tick(c, func(noc.Packet) { injected = true })
		inBurst := c%100 < 10
		if injected && !inBurst {
			t.Fatalf("injection at cycle %d outside burst window", c)
		}
	}
	// NextEvent from inside a gap jumps to the next burst.
	if ev := g.NextEvent(50); ev != 100 {
		t.Fatalf("NextEvent(50) = %d, want 100", ev)
	}
	if ev := g.NextEvent(5); ev != 6 {
		t.Fatalf("NextEvent(5) = %d, want 6", ev)
	}
}

func TestH264CBRSpacing(t *testing.T) {
	topo := mesh(t, 4, 4)
	g := generator(t, 3, config.TrafficConfig{
		Pattern: config.PatternH264, InjectionRate: 0.01,
	}, topo, sim.NewRNG(6))
	var times []uint64
	for c := uint64(0); c < 1000; c++ {
		g.Tick(c, func(noc.Packet) { times = append(times, c) })
	}
	if len(times) != 10 {
		t.Fatalf("CBR injected %d packets in 1000 cycles at period 100", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != 100 {
			t.Fatalf("CBR spacing %d, want 100", times[i]-times[i-1])
		}
	}
	// NextEvent predicts the schedule exactly.
	if ev := g.NextEvent(times[0]); ev != times[1] {
		t.Fatalf("NextEvent(%d) = %d, want %d", times[0], ev, times[1])
	}
}

func TestStoppedGeneratorGoesSilent(t *testing.T) {
	topo := mesh(t, 4, 4)
	g := generator(t, 0, config.TrafficConfig{
		Pattern: config.PatternUniform, InjectionRate: 1.0,
	}, topo, sim.NewRNG(7))
	g.Stop()
	g.Tick(0, func(noc.Packet) { t.Fatal("stopped generator injected") })
	if g.NextEvent(0) != sim.NoEvent {
		t.Fatal("stopped generator reports future events")
	}
}
