package noc

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"hornet/internal/snapshot"
	"hornet/internal/stats"
)

// packetMachine is a congested line of routers whose sources keep a
// backlog of packets on several flows each: 1 to 6 flits long, every third
// one carrying a payload. offered counts the packets offered so far, which
// decides the next one, so two machines in the same state are offered the
// same packets.
type packetMachine struct {
	routers  []*Router
	received []*[]Packet
	offered  int
}

const packetMachineRouters = 5

func newPacketMachine(t *testing.T) *packetMachine {
	routers, received := pipeline(t, packetMachineRouters, 2, 3, VCADynamic)
	return &packetMachine{routers: routers, received: received}
}

// offer tops every source's backlog up to 12 packets.
func (m *packetMachine) offer() {
	for _, r := range m.routers[:len(m.routers)-1] {
		for r.PendingPackets() < 12 {
			i := m.offered
			dst := r.ID + 1 + NodeID(i%(len(m.routers)-1-int(r.ID)))
			p := Packet{Flow: MakeFlow(r.ID, dst, uint8(i/7%2)), Dst: dst, Flits: 1 + i%6}
			if i%3 == 0 {
				p.Payload = []byte(fmt.Sprintf("packet %d", i))
			}
			r.OfferPacket(p)
			m.offered++
		}
	}
}

// packetState reports whether the machine holds what the round trip is
// about: a source with packets of several flows queued, a payload-bearing
// packet streaming in with its head already injected, and multi-flit
// packets mid-reassembly.
func (m *packetMachine) packetState() (flows int, payloadStreaming bool, assembling int) {
	for _, r := range m.routers {
		queued := map[FlowID]bool{}
		for _, pp := range r.pending.live() {
			queued[pp.flow] = true
		}
		flows = max(flows, len(queued))
		payloadStreaming = payloadStreaming || (r.streaming && r.curPayload != nil && len(r.curInj) > 0)
		assembling += len(r.assembly)
	}
	return flows, payloadStreaming, assembling
}

// save writes every router's state, generator and statistics into one
// snapshot, as a checkpoint of the machine does.
func (m *packetMachine) save(t *testing.T, clock uint64) []byte {
	t.Helper()
	snap := snapshot.New("packet-machine", clock)
	for i, r := range m.routers {
		if err := r.SaveState(snap.Section(fmt.Sprintf("router-%d", i)), clock); err != nil {
			t.Fatal(err)
		}
		snap.Section(fmt.Sprintf("rng-%d", i)).Uint64(r.rng.State())
		r.Stats().SaveState(snap.Section(fmt.Sprintf("stats-%d", i)))
	}
	b, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// restore loads what save wrote into this fresh machine.
func (m *packetMachine) restore(t *testing.T, b []byte) {
	t.Helper()
	snap, err := snapshot.DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range m.routers {
		rd, err := snap.Open(fmt.Sprintf("router-%d", i))
		if err == nil {
			err = r.LoadState(rd, snap.Clock)
		}
		if err != nil {
			t.Fatal(err)
		}
		rd, err = snap.Open(fmt.Sprintf("rng-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		r.rng.SetState(rd.Uint64())
		rd, err = snap.Open(fmt.Sprintf("stats-%d", i))
		if err == nil {
			err = r.Stats().LoadState(rd)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// digest hashes the machine's Summary, with its per-flow records, and every
// packet received, payloads included.
func (m *packetMachine) digest(t *testing.T) string {
	t.Helper()
	tiles := make([]*stats.Tile, len(m.routers))
	for i, r := range m.routers {
		tiles[i] = r.Stats()
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(stats.Aggregate(tiles)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range m.received {
		fmt.Fprintf(h, "%+v\n", *rec)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestPacketStateRoundTrip snapshots a machine that holds every piece of
// per-packet state a router keeps — queued packets of several flows at a
// source, whose flow sequence numbers are handed out only when they start
// streaming; a payload-bearing packet mid-stream, of which only the head
// flit and the pushed flits' injection cycles are kept; multi-flit packets
// mid-reassembly at their destinations — stepped by one worker and by
// three, with a barrier every cycle and at sync_period 5. The restored
// machine must save to the snapshot's bytes. Both machines then run on,
// offered the same packets, and must end with the same bytes and the same
// Summary digest: they continue with a barrier every cycle, where the
// simulated state does not depend on how workers interleave. The corrupt
// rows hold the restore to the numbers a router could have written
// (packetStateCorrupt).
func TestPacketStateRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, period := range []int{1, 5} {
			t.Run(fmt.Sprintf("workers%d/period%d", workers, period), func(t *testing.T) {
				packetStateRoundTrip(t, workers, period)
			})
		}
	}
	t.Run("corrupt", packetStateCorrupt)
}

func packetStateRoundTrip(t *testing.T, workers, period int) {
	whole := newPacketMachine(t)
	cycle := uint64(0)
	for ; ; cycle += uint64(period) {
		if cycle >= 200 {
			if flows, streaming, assembling := whole.packetState(); flows >= 3 && streaming && assembling >= 2 {
				break
			}
		}
		if cycle > 3000 {
			t.Fatal("no barrier up to cycle 3000 met several flows queued at a source, a payload mid-stream and packets mid-reassembly")
		}
		whole.offer()
		stepPeriod(whole.routers, workers, cycle, period)
	}
	blob := whole.save(t, cycle)
	for _, rec := range whole.received {
		*rec = (*rec)[:0] // from here on, both machines record what they deliver
	}
	restored := newPacketMachine(t)
	restored.offered = whole.offered
	restored.restore(t, blob)
	if !bytes.Equal(restored.save(t, cycle), blob) {
		t.Fatalf("cycle %d: the restored machine saves different bytes", cycle)
	}

	const offerFor, drainBy = 600, 4000
	for _, m := range []*packetMachine{whole, restored} {
		for c := cycle; c < cycle+drainBy; c++ {
			if c < cycle+offerFor {
				m.offer()
			}
			stepPeriod(m.routers, workers, c, 1)
		}
	}
	end := cycle + drainBy
	if !bytes.Equal(restored.save(t, end), whole.save(t, end)) {
		t.Fatalf("snapshot at cycle %d: the restored machine ends in a different state than the uninterrupted one", cycle)
	}
	if got, want := restored.digest(t), whole.digest(t); got != want {
		t.Fatalf("snapshot at cycle %d: Summary digest %s, uninterrupted %s", cycle, got, want)
	}
	if flows, streaming, _ := whole.packetState(); flows != 0 || streaming || whole.routers[0].PendingPackets() != 0 {
		t.Fatalf("the machine did not drain: %d flows queued at a source", flows)
	}
}

// packetStateCorrupt: numbers a router could not have written are a
// corrupt snapshot. A router keeps only the numbers it hands out as packets
// start and derives the queued packets' from them, so a flow's queued
// packets must be numbered consecutively up to the flow's count; it keeps
// only the streaming packet's head flit and when each pushed flit was
// injected, so the streaming flits must be that packet's, in order; and its
// reassembly list is kept by packet ID.
func packetStateCorrupt(t *testing.T) {
	routers, _ := pipeline(t, 2, 1, 4, VCADynamic)
	src, dst := routers[0], routers[1]
	flow := MakeFlow(0, 1, 0)
	for i := 0; i < 5; i++ {
		src.OfferPacket(Packet{Flow: flow, Dst: 1, Flits: 4})
	}
	cycle := uint64(0)
	for ; len(dst.assembly) == 0 || !src.streaming || len(src.curInj) < 2; cycle++ {
		step(routers, cycle)
		if cycle > 100 {
			t.Fatal("no packet reached reassembly while another streamed")
		}
	}

	// section splits a router's section into the packet state at its front
	// and the reassembly list at its end, around what lies between.
	type packetState struct {
		counter   uint64
		queue     []Packet
		streaming []Flit
		payload   any
		next, vc  int
		flows     []FlowID
		counts    []uint64
		assembly  []assembling
	}
	section := func(r *Router) (packetState, []byte) {
		blob := saveRouter(t, r, cycle)
		snap, err := snapshot.DecodeBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := snap.SectionPayload("router")
		rd, err := snap.Open("router")
		if err != nil {
			t.Fatal(err)
		}
		var s packetState
		s.counter = rd.Uint64()
		for n := rd.Count(1 << 24); len(s.queue) < n; {
			s.queue = append(s.queue, DecodePacket(rd))
		}
		if rd.Bool() {
			for n := rd.Count(MaxPacketFlits); len(s.streaming) < n; {
				f, payload, err := loadFlit(rd)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.streaming) == 0 {
					s.payload = payload
				}
				s.streaming = append(s.streaming, f)
			}
			s.next, s.vc = rd.Int(), rd.Int()
		}
		for n := rd.Count(1 << 28); len(s.flows) < n; {
			s.flows = append(s.flows, FlowID(rd.Uint32()))
			s.counts = append(s.counts, rd.Uint64())
		}
		if err := rd.Err(); err != nil {
			t.Fatal(err)
		}
		s.assembly = append(s.assembly, r.assembly...)
		tail := encodeAssembly(t, s.assembly)
		middle := raw[len(raw)-rd.Len() : len(raw)-len(tail)]
		if !bytes.Equal(raw[len(raw)-len(tail):], tail) {
			t.Fatal("the router's section does not end with its reassembly list")
		}
		return s, middle
	}
	load := func(id NodeID, s packetState, middle []byte) error {
		w := snapshot.New("router-test", cycle)
		sw := w.Section("router")
		sw.Uint64(s.counter)
		sw.Int(len(s.queue))
		for _, p := range s.queue {
			if err := EncodePacket(sw, p); err != nil {
				t.Fatal(err)
			}
		}
		sw.Bool(s.streaming != nil)
		if s.streaming != nil {
			sw.Int(len(s.streaming))
			payload := s.payload
			for i := range s.streaming {
				if err := saveFlit(sw, &s.streaming[i], payload); err != nil {
					t.Fatal(err)
				}
				payload = nil
			}
			sw.Int(s.next)
			sw.Int(s.vc)
		}
		sw.Int(len(s.flows))
		for i, f := range s.flows {
			sw.Uint32(uint32(f))
			sw.Uint64(s.counts[i])
		}
		front, _ := w.SectionPayload("router")
		w.SetSection("router", append(append(front, middle...), encodeAssembly(t, s.assembly)...))
		rd, err := w.Open("router")
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := pipeline(t, 2, 1, 4, VCADynamic)
		if err := fresh[id].LoadState(rd, cycle); err != nil {
			return err
		}
		return rd.Close()
	}

	srcState, srcMiddle := section(src)
	if len(srcState.queue) < 2 || len(srcState.streaming) != 4 || srcState.next < 2 {
		t.Fatalf("the source holds %d queued packets and %d streaming flits, %d pushed", len(srcState.queue), len(srcState.streaming), srcState.next)
	}
	dstState, dstMiddle := section(dst)
	for _, r := range routers {
		s, middle := srcState, srcMiddle
		if r == dst {
			s, middle = dstState, dstMiddle
		}
		if err := load(r.ID, s, middle); err != nil {
			t.Fatalf("router %d's state, written back: %v", r.ID, err)
		}
	}

	for _, tc := range []struct {
		name   string
		edit   func(s *packetState)
		detail string
	}{
		{"queued flow sequence numbers not consecutive", func(s *packetState) { s.queue[1].FlowSeq++ },
			"queued packet 1 of flow f0:0->1 has flow sequence number"},
		{"flow count past its last queued packet", func(s *packetState) { s.counts[0]++ },
			"flow f0:0->1 queues packets"},
		{"queued flow without a count", func(s *packetState) { s.flows, s.counts = nil, nil },
			"flow f0:0->1 queues packets but has no counter"},
		{"streaming flits of two packets", func(s *packetState) { s.streaming[2].Packet++ },
			"streaming flit 2"},
		{"pushed flit without its head's injection cycle", func(s *packetState) { s.streaming[1].HeadInjectedAt++ },
			"streaming flit 1"},
		{"unpushed flit stamped", func(s *packetState) { s.streaming[3].InjectedAt = 1 },
			"streaming flit 3"},
		{"streaming flits out of order", func(s *packetState) { s.streaming[2].Seq, s.streaming[3].Seq = 3, 2 },
			"streaming flit 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := srcState
			s.queue = append([]Packet(nil), s.queue...)
			s.streaming = append([]Flit(nil), s.streaming...)
			s.counts = append([]uint64(nil), s.counts...)
			tc.edit(&s)
			checkCorrupt(t, load(src.ID, s, srcMiddle), "router 0: "+tc.detail)
		})
	}
	t.Run("reassembly entries out of order", func(t *testing.T) {
		s := dstState
		next := s.assembly[0]
		next.head.Packet++
		s.assembly = []assembling{next, s.assembly[0]}
		checkCorrupt(t, load(dst.ID, s, dstMiddle), "router 1: reassembly entry 1")
	})
}

// encodeAssembly writes a reassembly list as Router.SaveState ends a
// router's section with it.
func encodeAssembly(t *testing.T, list []assembling) []byte {
	t.Helper()
	snap := snapshot.New("assembly", 0)
	w := snap.Section("assembly")
	w.Int(len(list))
	for i := range list {
		w.Uint64(list[i].head.Packet)
		if err := saveFlit(w, &list[i].head, list[i].payload); err != nil {
			t.Fatal(err)
		}
	}
	b, _ := snap.SectionPayload("assembly")
	return b
}
