package noc

import (
	"sync/atomic"
	"testing"

	"hornet/internal/sim"
	"hornet/internal/stats"
)

// lineTable routes every flow along a 0 -> 1 -> ... -> n-1 line and
// ejects at the flow's destination.
type lineTable struct{ self NodeID }

func (lt lineTable) Lookup(prev NodeID, flow FlowID) []RouteEntry {
	if flow.Dst() == lt.self {
		return []RouteEntry{{Next: lt.self, NextFlow: flow.Base(), Weight: 1}}
	}
	return []RouteEntry{{Next: lt.self + 1, NextFlow: flow, Weight: 1}}
}

// allVCs is a trivial VCA table: every VC, equal weight.
type allVCs struct{}

func (allVCs) Candidates(prev NodeID, flow FlowID, next NodeID, nextFlow FlowID, numVCs int) []VCChoice {
	out := make([]VCChoice, numVCs)
	for i := range out {
		out[i] = VCChoice{VC: i, Weight: 1}
	}
	return out
}

// pipeline builds an n-router line with the given VC geometry and returns
// the routers plus per-node received packets.
func pipeline(t testing.TB, n, vcs, bufFlits int, mode VCAMode) ([]*Router, []*[]Packet) {
	t.Helper()
	inflight := new(atomic.Int64)
	routers := make([]*Router, n)
	received := make([]*[]Packet, n)
	for i := 0; i < n; i++ {
		routers[i] = NewRouter(RouterParams{
			ID:            NodeID(i),
			Table:         lineTable{self: NodeID(i)},
			VCATable:      allVCs{},
			VCAMode:       mode,
			RNG:           sim.NewRNG(uint64(i) + 1),
			Stats:         stats.NewTile(),
			InFlight:      inflight,
			LocalVCs:      vcs,
			LocalBufFlits: bufFlits,
		})
		rec := &[]Packet{}
		received[i] = rec
		routers[i].SetReceiver(ReceiverFunc(func(p Packet, cycle uint64) {
			*rec = append(*rec, p)
		}))
	}
	for i := 0; i < n-1; i++ {
		a, b := routers[i], routers[i+1]
		pa := a.AddPort(b.ID, vcs, bufFlits)
		pb := b.AddPort(a.ID, vcs, bufFlits)
		link := NewLink(1, false)
		a.ConnectEgress(b.ID, b.Ports()[pb].In, link, 0)
		b.ConnectEgress(a.ID, a.Ports()[pa].In, link, 1)
	}
	return routers, received
}

// step advances the whole pipeline one cycle (single-threaded).
func step(routers []*Router, cycle uint64) {
	for _, r := range routers {
		r.PhaseTransfer(cycle)
	}
	for _, r := range routers {
		r.PhaseCommit(cycle)
	}
}

func TestRouterPipelineDelivery(t *testing.T) {
	routers, received := pipeline(t, 3, 2, 4, VCADynamic)
	routers[0].OfferPacket(Packet{Flow: MakeFlow(0, 2, 0), Dst: 2, Flits: 4})
	for c := uint64(0); c < 100; c++ {
		step(routers, c)
	}
	if len(*received[2]) != 1 {
		t.Fatalf("destination received %d packets", len(*received[2]))
	}
	p := (*received[2])[0]
	if p.Src != 0 || p.Flits != 4 || p.Latency == 0 {
		t.Fatalf("delivered packet malformed: %+v", p)
	}
	if len(*received[1]) != 0 {
		t.Fatal("intermediate router ejected a through-packet")
	}
}

func TestRouterPayloadSurvivesTransit(t *testing.T) {
	routers, received := pipeline(t, 4, 2, 4, VCADynamic)
	payload := map[string]int{"answer": 42}
	routers[0].OfferPacket(Packet{Flow: MakeFlow(0, 3, 0), Dst: 3, Flits: 3, Payload: payload})
	for c := uint64(0); c < 200; c++ {
		step(routers, c)
	}
	if len(*received[3]) != 1 {
		t.Fatalf("got %d packets", len(*received[3]))
	}
	got, ok := (*received[3])[0].Payload.(map[string]int)
	if !ok || got["answer"] != 42 {
		t.Fatalf("payload corrupted: %v", (*received[3])[0].Payload)
	}
}

func TestWormholeNoInterleavingPerVC(t *testing.T) {
	// Two flows through a 2-router line with a single VC: flits of
	// different packets must never interleave within the VC (invariant
	// I6); with FIFO delivery this shows as strictly ordered FlowSeq.
	routers, received := pipeline(t, 2, 1, 2, VCADynamic)
	for i := 0; i < 5; i++ {
		routers[0].OfferPacket(Packet{Flow: MakeFlow(0, 1, 0), Dst: 1, Flits: 3})
	}
	for c := uint64(0); c < 300; c++ {
		step(routers, c)
	}
	if len(*received[1]) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(*received[1]))
	}
	for i, p := range *received[1] {
		if p.FlowSeq != uint64(i+1) {
			t.Fatalf("packet %d has flow seq %d: reordered", i, p.FlowSeq)
		}
	}
}

func TestInjectionBacklogQueues(t *testing.T) {
	routers, received := pipeline(t, 2, 1, 1, VCADynamic)
	for i := 0; i < 10; i++ {
		routers[0].OfferPacket(Packet{Flow: MakeFlow(0, 1, 0), Dst: 1, Flits: 8})
	}
	if routers[0].PendingPackets() != 10 {
		t.Fatalf("pending %d", routers[0].PendingPackets())
	}
	for c := uint64(0); c < 2000; c++ {
		step(routers, c)
	}
	if len(*received[1]) != 10 {
		t.Fatalf("delivered %d of 10 backlogged packets", len(*received[1]))
	}
	if routers[0].PendingPackets() != 0 {
		t.Fatal("injector queue not drained")
	}
}

// edvcaProbe drives two flows through a shared link under EDVCA and
// verifies the exclusivity invariant by inspecting the downstream
// buffers every cycle: a VC must never hold flits of two flows at once.
func TestEDVCAExclusivity(t *testing.T) {
	routers, received := pipeline(t, 2, 2, 4, VCAEDVCA)
	flowA := MakeFlow(0, 1, 0)
	flowB := MakeFlow(0, 1, 1) // different class = different flow
	for i := 0; i < 6; i++ {
		routers[0].OfferPacket(Packet{Flow: flowA, Dst: 1, Flits: 3})
		routers[0].OfferPacket(Packet{Flow: flowB, Dst: 1, Flits: 3})
	}
	netPort, _ := routers[1].PortToward(NodeID(0))
	ingress := routers[1].Ports()[netPort].In
	for c := uint64(0); c < 1000; c++ {
		step(routers, c)
		for vi, buf := range ingress {
			flits := buf.Drain()
			seen := map[FlowID]bool{}
			for _, f := range flits {
				seen[f.Flow.Base()] = true
				buf.Push(f) // put them back
			}
			if len(seen) > 1 {
				t.Fatalf("cycle %d: VC %d holds %d distinct flows (EDVCA violated)", c, vi, len(seen))
			}
		}
	}
	total := len(*received[1])
	if total != 12 {
		t.Fatalf("delivered %d of 12 packets", total)
	}
}

func TestRouterStatsConsistency(t *testing.T) {
	routers, _ := pipeline(t, 3, 2, 4, VCADynamic)
	for i := 0; i < 8; i++ {
		routers[0].OfferPacket(Packet{Flow: MakeFlow(0, 2, 0), Dst: 2, Flits: 2})
	}
	for c := uint64(0); c < 500; c++ {
		step(routers, c)
	}
	src := routers[0].Stats()
	dst := routers[2].Stats()
	if src.FlitsInjected != 16 {
		t.Fatalf("injected %d flits", src.FlitsInjected)
	}
	if dst.FlitsDelivered != 16 || dst.PacketsDelivered != 8 {
		t.Fatalf("delivered %d flits / %d packets", dst.FlitsDelivered, dst.PacketsDelivered)
	}
	// Every delivered flit was read from a buffer at least twice (once
	// per router it visited).
	totalReads := src.BufReads + routers[1].Stats().BufReads + dst.BufReads
	if totalReads < 3*16 {
		t.Fatalf("only %d buffer reads for 16 flits over 2 hops + ejection", totalReads)
	}
}

func TestZeroLoadLatencyMatchesPipelineDepth(t *testing.T) {
	routers, received := pipeline(t, 2, 2, 4, VCADynamic)
	routers[0].OfferPacket(Packet{Flow: MakeFlow(0, 1, 0), Dst: 1, Flits: 1})
	for c := uint64(0); c < 50; c++ {
		step(routers, c)
	}
	if len(*received[1]) != 1 {
		t.Fatal("no delivery")
	}
	lat := (*received[1])[0].Latency
	// RC + VA + SA at the source (3 cycles) + link + RC + SA at the sink:
	// small and fixed; anything above ~10 means spurious stalling.
	if lat < 4 || lat > 10 {
		t.Fatalf("zero-load single-flit latency %d outside [4,10]", lat)
	}
}

var sinkFlit Flit

// BenchmarkVCBufferPushPop moves one flit through a buffer per iteration
// with the calls a router makes around it: push, peek, pop, commit.
func BenchmarkVCBufferPushPop(b *testing.B) {
	buf := NewVCBuffer(4)
	f := Flit{Kind: HeadTail, Flow: MakeFlow(0, 1, 0), Packet: 1, Len: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !buf.Push(f) {
			b.Fatal("push failed")
		}
		if _, ok := buf.Peek(0); !ok {
			b.Fatal("pushed flit not visible")
		}
		sinkFlit = buf.Pop()
		buf.Commit()
	}
}

// BenchmarkRouterIdleCycle steps a router that has nothing to do: the
// per-cycle floor every tile pays (ingress scan plus the one egress
// permutation draw), here for the middle router of a line — local port
// plus two network ports, 4 VCs each.
func BenchmarkRouterIdleCycle(b *testing.B) {
	routers, _ := pipeline(b, 3, 4, 4, VCADynamic)
	r := routers[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PhaseTransfer(uint64(i))
		r.PhaseCommit(uint64(i))
	}
}
