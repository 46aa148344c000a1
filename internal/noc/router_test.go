package noc

import (
	"fmt"
	"sync/atomic"
	"testing"
	"unsafe"

	"hornet/internal/sim"
	"hornet/internal/snapshot"
	"hornet/internal/stats"
)

// lineTable routes every flow along a 0 -> 1 -> ... -> n-1 line and
// ejects at the flow's destination.
type lineTable struct{ self NodeID }

func (lt lineTable) Lookup(prev NodeID, flow FlowID) *RouteLine {
	if flow.Dst() == lt.self {
		return &RouteLine{Entries: []RouteEntry{{Next: lt.self, Weight: 1}}}
	}
	return &RouteLine{Entries: []RouteEntry{{Next: lt.self + 1, Phase2: flow.Phase2(), Weight: 1}}}
}

// Line is never asked: the table's lines are unnumbered, so no flit
// carries one.
func (lineTable) Line(uint32) *RouteLine { return nil }

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
// the routers plus per-node received packets. Like core.New it names every
// router's ports when it creates the router and wires the egress sides
// once all routers exist.
func pipeline(t testing.TB, n, vcs, bufFlits int, mode VCAMode) ([]*Router, []*[]Packet) {
	t.Helper()
	return linkedPipeline(t, n, vcs, bufFlits, mode, false)
}

// linkedPipeline is pipeline with the links between the routers
// bandwidth-adaptive (one flit per direction, two to share) if bidir is set.
func linkedPipeline(t testing.TB, n, vcs, bufFlits int, mode VCAMode, bidir bool) ([]*Router, []*[]Packet) {
	t.Helper()
	inflight := new(atomic.Int64)
	routers := make([]*Router, n)
	received := make([]*[]Packet, n)
	for i := 0; i < n; i++ {
		var ports []PortParams
		if i > 0 {
			ports = append(ports, PortParams{Neighbor: NodeID(i - 1), VCs: vcs, BufFlits: bufFlits})
		}
		if i+1 < n {
			ports = append(ports, PortParams{Neighbor: NodeID(i + 1), VCs: vcs, BufFlits: bufFlits})
		}
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
			Ports:         ports,
		})
		rec := &[]Packet{}
		received[i] = rec
		routers[i].SetReceiver(ReceiverFunc(func(p Packet, cycle uint64) {
			*rec = append(*rec, p)
		}))
	}
	for i := 0; i < n-1; i++ {
		a, b := routers[i], routers[i+1]
		pa, _ := a.PortToward(b.ID)
		pb, _ := b.PortToward(a.ID)
		link := NewLink(1, bidir)
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
			seen := map[FlowID]bool{}
			for i := 0; i < buf.Len(); i++ {
				seen[buf.flitAt(i).Flow.Base()] = true
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

// TestFlitLayout guards the flit's size: it is what every hop copies and
// what a buffer slot holds. It is one cache line only with the endpoints
// taken from the flow, the payload in the buffer's ring, the route line as
// a 32-bit number beside Seq and Len, and pick in a byte beside Kind.
func TestFlitLayout(t *testing.T) {
	if size := unsafe.Sizeof(Flit{}); size != 64 {
		t.Fatalf("Flit is %d bytes, want 64: one cache line per slot and per hop", size)
	}
}

// TestPendingPacketLayout guards a queued injection's size: past
// saturation the source queues are the only state that grows with
// simulated time, one record per backlogged packet. It is 8 bytes because
// a packet's flow sequence number is handed out when it leaves the queue.
func TestPendingPacketLayout(t *testing.T) {
	if size := unsafe.Sizeof(pendingPacket{}); size != 8 {
		t.Fatalf("pendingPacket is %d bytes, want 8", size)
	}
}

// TestFlitCodecCarriesNoRoute: a flit's line and pick are host-side only.
// A flit that carries them encodes to the bytes of the same flit without
// them, and decodes without a line (its next router looks it up).
func TestFlitCodecCarriesNoRoute(t *testing.T) {
	plain := Flit{Kind: Head, Hops: 3, Flow: MakeFlow(1, 2, 0).WithPhase2(), Packet: 7, Len: 4, FlowSeq: 9,
		InjectedAt: 10, HeadInjectedAt: 10, VisibleAt: 14, Latency: 3}
	routed := plain
	routed.line = 2
	routed.pick = 1
	encode := func(f *Flit) []byte {
		snap := snapshot.New("flit", 0)
		if err := saveFlit(snap.Section("flit"), f, nil); err != nil {
			t.Fatal(err)
		}
		b, err := snap.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := encode(&routed)
	if string(b) != string(encode(&plain)) {
		t.Fatal("a flit's line and pick changed its encoding")
	}
	snap, err := snapshot.DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.Open("flit")
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := loadFlit(r); err != nil || got != plain {
		t.Fatalf("decoded %+v, want %+v (no line, no pick)", got, plain)
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
		if !buf.Push(f, nil) {
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
// per-cycle floor every tile pays (a load of the occupancy mask and the
// skip over the egress permutation's draws), here for the middle router of
// a line — local port plus two network ports, 4 VCs each.
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

// TestVCStateLayout is the layout guard for the ingress VC record: at most
// two cache lines, with everything that decides what an occupied VC may
// do — the cached head descriptor, the allocation state and the buffer's
// two counters — in the first; for the buffer header inside it; and for the
// egress record, which a credit check reads and the downstream router's
// thread writes: one cache line, never two.
func TestVCStateLayout(t *testing.T) {
	var st vcState
	if size := unsafe.Sizeof(st); size > 128 {
		t.Fatalf("vcState is %d bytes, want <= 128", size)
	}
	if size := unsafe.Sizeof(st.buf); size != 56 {
		t.Fatalf("the VC buffer header is %d bytes, want 56", size)
	}
	if size := unsafe.Sizeof(egressVC{}); size != 64 {
		t.Fatalf("egressVC is %d bytes, want one 64-byte cache line", size)
	}
	if end := unsafe.Offsetof(st.buf) + unsafe.Offsetof(st.buf.pops) + unsafe.Sizeof(st.buf.pops); end > 64 {
		t.Fatalf("the buffer's push and pop counters end at byte %d of the record, want them within its first 64", end)
	}
	for name, off := range map[string]uintptr{
		"headVis": unsafe.Offsetof(st.headVis), "headPacket": unsafe.Offsetof(st.headPacket),
		"ev": unsafe.Offsetof(st.ev), "pktID": unsafe.Offsetof(st.pktID), "vaAt": unsafe.Offsetof(st.vaAt),
		"sCount": unsafe.Offsetof(st.sCount), "vaDone": unsafe.Offsetof(st.vaDone), "egress": unsafe.Offsetof(st.egress),
	} {
		if off >= 64 {
			t.Errorf("%s sits at byte %d, outside the record's first line", name, off)
		}
	}

	// The occupancy mask is written by the neighbours' threads, so its words
	// must share a cache line with nothing the owning router's thread keeps
	// to itself: not the router's own hot fields, not its generator, not a
	// VC record, not another router's mask.
	line := func(p unsafe.Pointer) uintptr { return uintptr(p) / 64 }
	for _, vcs := range []int{4, 40} { // one mask word per router; two
		routers, _ := pipeline(t, 3, vcs, 4, VCADynamic)
		masks := map[uintptr]NodeID{}
		for _, r := range routers {
			for w := range r.occ {
				masks[line(unsafe.Pointer(&r.occ[w]))] = r.ID
			}
			if first, last := line(unsafe.Pointer(&r.occ[0])), line(unsafe.Pointer(&r.occ[len(r.occ)-1])); int(last-first) >= (len(r.occ)+7)/8 {
				t.Errorf("router %d: %d mask words spread over %d cache lines", r.ID, len(r.occ), last-first+1)
			}
		}
		for _, r := range routers {
			for pi, p := range r.ports {
				for vi := range p.outState {
					// The allocator starts a port's records on a line, or — behind
					// its header word, when they take more than 512 bytes — 8 bytes
					// into one, which the record's trailing field, the credit
					// cell's payload-ring pointer, absorbs.
					ev := &p.outState[vi]
					if first, last := unsafe.Pointer(ev), unsafe.Add(unsafe.Pointer(&ev.vc), unsafe.Sizeof(ev.vc)-1); line(first) != line(last) {
						t.Errorf("router %d port %d: the fields of egress record %d straddle two cache lines (it starts at byte %d of one)", r.ID, pi, vi, uintptr(first)%64)
					}
				}
			}
			private := map[string]unsafe.Pointer{
				"the router's occ field": unsafe.Pointer(&r.occ), "the router's vcs field": unsafe.Pointer(&r.vcs),
				"the router's rng field": unsafe.Pointer(&r.rng), "the router's generator": unsafe.Pointer(r.rng),
				"the router's last hot field": unsafe.Pointer(&r.vaScratch),
			}
			for i := range r.vcs {
				private[fmt.Sprintf("vc record %d", i)] = unsafe.Pointer(&r.vcs[i])
				private[fmt.Sprintf("the end of vc record %d", i)] = unsafe.Add(unsafe.Pointer(&r.vcs[i]), unsafe.Sizeof(st)-1)
			}
			for what, p := range private {
				if owner, shared := masks[line(p)]; shared {
					t.Errorf("router %d: %s shares a cache line with router %d's occupancy mask", r.ID, what, owner)
				}
			}
			for w := range r.occ {
				if owner := masks[line(unsafe.Pointer(&r.occ[w]))]; owner != r.ID {
					t.Errorf("router %d's occupancy mask shares a cache line with router %d's", r.ID, owner)
				}
			}
		}
	}
}

// checkCredits asserts, for every egress VC of every router (the local
// injection VCs included), that the producer-side credit word is the
// downstream buffer's committed pop count: the same word, holding the
// buffer's pops (every pop so far has been committed when this is called).
func checkCredits(t *testing.T, when string, routers []*Router) {
	t.Helper()
	check := func(r *Router, what string, ev *egressVC, down *VCBuffer) {
		t.Helper()
		if ev.buf != down || down.credit != &ev.credit {
			t.Fatalf("%s: router %d %s: egress record and downstream buffer are not wired to each other", when, r.ID, what)
		}
		if got, want := uint64(ev.credit.latest()), down.pops.Load(); got != want || down.CommittedPops() != want {
			t.Fatalf("%s: router %d %s: producer-side credit %d, CommittedPops %d, consumer popped %d",
				when, r.ID, what, got, down.CommittedPops(), want)
		}
	}
	for _, r := range routers {
		for vi := range r.sourceState {
			check(r, fmt.Sprintf("injection vc %d", vi), &r.sourceState[vi], r.LocalPort().In[vi])
		}
		for pi, p := range r.Ports() {
			for vi := range p.outState {
				check(r, fmt.Sprintf("port %d vc %d", pi, vi), &p.outState[vi], p.Out[vi])
			}
		}
	}
}

// saveRouter serializes one router as the system snapshot does.
func saveRouter(t *testing.T, r *Router, clock uint64) []byte {
	t.Helper()
	snap := snapshot.New("router-test", clock)
	if err := r.SaveState(snap.Section("router"), clock); err != nil {
		t.Fatal(err)
	}
	b, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func loadRouter(t *testing.T, r *Router, blob []byte) {
	t.Helper()
	snap, err := snapshot.DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := snap.Open("router")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadState(rd, snap.Clock); err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
}

// congest offers enough long packets from both ends' sources to keep a
// line's buffers full for a few hundred cycles.
func congest(routers []*Router) {
	last := NodeID(len(routers) - 1)
	for i := 0; i < 12; i++ {
		routers[0].OfferPacket(Packet{Flow: MakeFlow(0, last, 0), Dst: last, Flits: 7})
		routers[1].OfferPacket(Packet{Flow: MakeFlow(1, last, 0), Dst: last, Flits: 5})
	}
}

// TestCreditKeptAtProducer checks the credit word's three writers: Commit
// during a run, VCBuffer.LoadState when the routers of a snapshot are
// restored in either order, and nobody at all (a buffer no producer
// connected still counts for itself).
func TestCreditKeptAtProducer(t *testing.T) {
	routers, _ := pipeline(t, 4, 2, 3, VCADynamic)
	congest(routers)
	for c := uint64(0); c < 60; c++ {
		step(routers, c)
		checkCredits(t, fmt.Sprintf("after cycle %d", c), routers)
	}
	moved := uint64(0)
	for _, r := range routers {
		for _, p := range r.Ports() {
			for vi := range p.outState {
				moved += uint64(p.outState[vi].credit.latest())
			}
		}
	}
	if moved == 0 {
		t.Fatal("no flit crossed a link: the run checked nothing")
	}

	blobs := make([][]byte, len(routers))
	for i, r := range routers {
		blobs[i] = saveRouter(t, r, 60)
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		fresh, _ := pipeline(t, 4, 2, 3, VCADynamic)
		for _, i := range order {
			loadRouter(t, fresh[i], blobs[i])
		}
		checkCredits(t, fmt.Sprintf("restored in order %v", order), fresh)
		for i, r := range fresh {
			for pi, p := range r.Ports() {
				for vi := range p.outState {
					if got, want := uint64(p.outState[vi].credit.latest()), uint64(routers[i].Ports()[pi].outState[vi].credit.latest()); got != want {
						t.Fatalf("restored in order %v: router %d port %d vc %d: credit %d, the saved run had %d", order, i, pi, vi, got, want)
					}
				}
			}
		}
	}

	// A router whose neighbour never connected: its network ingress buffers
	// have no producer-side word to commit into.
	lone := NewRouter(RouterParams{
		ID: 0, Table: lineTable{self: 0}, VCATable: allVCs{}, RNG: sim.NewRNG(1), Stats: stats.NewTile(),
		InFlight: new(atomic.Int64), LocalVCs: 1, LocalBufFlits: 2,
		Ports: []PortParams{{Neighbor: 1, VCs: 1, BufFlits: 2}},
	})
	buf := lone.Ports()[1].In[0]
	if got := buf.CommittedPops(); got != 0 {
		t.Fatalf("unconnected buffer reports %d committed pops before any", got)
	}
	buf.Push(Flit{}, nil)
	buf.Pop()
	if got := buf.CommittedPops(); got != 0 {
		t.Fatalf("unconnected buffer shows %d pops before the commit", got)
	}
	buf.Commit()
	if got := buf.CommittedPops(); got != 1 {
		t.Fatalf("unconnected buffer reports %d committed pops after one, want 1", got)
	}
}

// blockedRouter builds a 5-port, 4-VC router in the state a saturated
// mesh keeps most routers in: every ingress VC holds the head flit of a
// routed, VC-allocated packet and no downstream VC has credit, so nothing
// may move.
func blockedRouter(tb testing.TB) *Router {
	tb.Helper()
	const vcs, bufFlits = 4, 4
	neighbors := []NodeID{1, 2, 3, 4}
	var ports []PortParams
	for _, nb := range neighbors {
		ports = append(ports, PortParams{Neighbor: nb, VCs: vcs, BufFlits: bufFlits})
	}
	r := NewRouter(RouterParams{
		ID: 0, Table: spreadTable{}, VCATable: allVCs{}, RNG: sim.NewRNG(1), Stats: stats.NewTile(),
		InFlight: new(atomic.Int64), LocalVCs: vcs, LocalBufFlits: bufFlits, Ports: ports,
	})
	// Five downstream VCs per egress port, one for each of the five ingress
	// VCs bound there, of one slot each, so every egress VC runs out of
	// credit after a single flit.
	for _, nb := range neighbors {
		down := make([]*VCBuffer, vcs+1)
		for vi := range down {
			down[vi] = NewVCBuffer(1)
		}
		r.ConnectEgress(nb, down, NewLink(1, false), 0)
	}
	// One two-flit packet per ingress VC, five per egress port: the heads
	// take the egress VCs' only slots and the tails stay behind, blocked.
	pkt := uint64(0)
	for pi, p := range r.Ports() {
		for vi, buf := range p.In {
			pkt++
			dst := neighbors[(pi+vi)%len(neighbors)]
			for seq, kind := range []Kind{Head, Tail} {
				buf.Push(Flit{Kind: kind, Flow: MakeFlow(5, dst, 0), Packet: pkt, Seq: uint16(seq), Len: 2}, nil)
			}
		}
	}
	for c := uint64(0); c < 40; c++ {
		r.PhaseTransfer(c)
		r.PhaseCommit(c)
	}
	for pi, p := range r.Ports() {
		for vi := range p.inState {
			st := &p.inState[vi]
			if !st.vaDone || st.ev == nil || st.ev.free(r.last) != 0 || st.buf.Len() != 1 {
				tb.Fatalf("port %d vc %d is not blocked on credit: vaDone=%v ev=%v resident=%d", pi, vi, st.vaDone, st.ev != nil, st.buf.Len())
			}
		}
	}
	return r
}

// spreadTable routes a flow to the neighbour its destination names.
type spreadTable struct{}

func (spreadTable) Lookup(prev NodeID, flow FlowID) *RouteLine {
	return &RouteLine{Entries: []RouteEntry{{Next: flow.Dst(), Phase2: flow.Phase2(), Weight: 1}}}
}

func (spreadTable) Line(uint32) *RouteLine { return nil }

// BenchmarkRouterCreditBlocked steps the saturated-mesh case: 20 occupied
// ingress VCs, none of which may move for want of a credit. All of them are
// parked, so the cycle is the idle one (BenchmarkRouterIdleCycle): a load of
// the mask and the skip over the egress permutation.
func BenchmarkRouterCreditBlocked(b *testing.B) {
	r := blockedRouter(b)
	if r.anyOccupied() {
		b.Fatalf("a fully credit-blocked router has mask %#x, want every VC parked", r.occ[0].Load())
	}
	moved := r.Stats().XbarTransits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PhaseTransfer(uint64(100 + i))
		r.PhaseCommit(uint64(100 + i))
	}
	if r.Stats().XbarTransits != moved {
		b.Fatal("a blocked router moved a flit")
	}
}
