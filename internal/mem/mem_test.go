package mem

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"hornet/internal/noc"
)

// loopback is a network of tile bridges joined by zero-hop links: a packet
// a bridge offers in one step reaches its destination's bridge in the
// next, letting cache/directory logic be unit-tested without routers.
// Messages to a bridge's own tile loop back inside it, as in a machine.
type loopback struct {
	bridges []*Bridge
	sent    []noc.Packet
}

func newLoopback(n int) *loopback {
	lb := &loopback{}
	for i := 0; i < n; i++ {
		src := noc.NodeID(i)
		lb.bridges = append(lb.bridges, NewBridge(src, func(p noc.Packet) {
			p.Src = src
			lb.sent = append(lb.sent, p)
		}))
	}
	return lb
}

// step delivers all queued packets and ticks every tile's memory side once.
func (lb *loopback) step(cycle uint64) {
	batch := lb.sent
	lb.sent = nil
	for _, p := range batch {
		lb.bridges[p.Dst].ReceivePacket(p, cycle)
	}
	for _, b := range lb.bridges {
		b.Tick(cycle)
	}
}

// build wires n tiles with L1s, directories everywhere and one MC at 0.
func build(t *testing.T, n int) (*loopback, *AddressMap) {
	t.Helper()
	am := &AddressMap{LineBytes: 32, Nodes: n, Controllers: []noc.NodeID{0}}
	lb := newLoopback(n)
	for i, b := range lb.bridges {
		b.Dir = NewDirectory(noc.NodeID(i), am, b)
		b.L1 = NewL1(noc.NodeID(i), am, 4, 2, 1, b)
	}
	lb.bridges[0].MC = NewController(0, 10, 4, lb.bridges[0])
	return lb, am
}

// access drives one L1 access to completion.
func access(t *testing.T, lb *loopback, l1 *L1, write bool, addr uint32, size int, wdata uint64) uint64 {
	t.Helper()
	for cycle := uint64(0); cycle < 10_000; cycle++ {
		v, done := l1.Access(cycle, write, addr, size, wdata)
		if done {
			return v
		}
		lb.step(cycle)
	}
	t.Fatalf("access to %#x did not complete", addr)
	return 0
}

func TestMSIWriteReadThroughTwoCaches(t *testing.T) {
	lb, _ := build(t, 4)
	w := lb.bridges[1].L1
	r := lb.bridges[2].L1
	access(t, lb, w, true, 0x1000, 4, 0xCAFEBABE)
	if v := access(t, lb, r, false, 0x1000, 4, 0); v != 0xCAFEBABE {
		t.Fatalf("reader saw %#x", v)
	}
	// Write again from the other cache: requires invalidate + ownership.
	access(t, lb, r, true, 0x1000, 4, 0x12345678)
	if v := access(t, lb, w, false, 0x1000, 4, 0); v != 0x12345678 {
		t.Fatalf("original writer saw %#x after transfer", v)
	}
	if w.Stats.Invalidations == 0 {
		t.Fatal("no invalidations recorded despite ownership transfers")
	}
}

func TestMSISubWordAccesses(t *testing.T) {
	lb, _ := build(t, 2)
	c := lb.bridges[1].L1
	access(t, lb, c, true, 0x2000, 1, 0xAB)
	access(t, lb, c, true, 0x2001, 1, 0xCD)
	if v := access(t, lb, c, false, 0x2000, 2, 0); v != 0xCDAB {
		t.Fatalf("little-endian halfword %#x", v)
	}
}

func TestEvictionWritesBack(t *testing.T) {
	lb, am := build(t, 2)
	c := lb.bridges[1].L1
	// 4 sets x 2 ways with 32B lines: addresses mapping to set 0 are
	// 32*4*k apart. Fill 3 such lines to force an eviction.
	base := uint32(0x4000)
	stride := uint32(32 * 4)
	for k := uint32(0); k < 3; k++ {
		access(t, lb, c, true, base+k*stride, 4, uint64(k+100))
	}
	if c.Stats.WriteBacks == 0 {
		t.Fatal("no write-back on dirty eviction")
	}
	// The evicted value survives in its home slice.
	if v := access(t, lb, c, false, base, 4, 0); v != 100 {
		t.Fatalf("evicted line read back %d", v)
	}
	_ = am
}

func TestFirstTouchGoesToMemoryController(t *testing.T) {
	lb, _ := build(t, 2)
	access(t, lb, lb.bridges[1].L1, false, 0x5000, 4, 0)
	if lb.bridges[0].MC.Reads == 0 {
		t.Fatal("first touch did not reach the memory controller")
	}
	reads := lb.bridges[0].MC.Reads
	// Second access to the same line: directory-cached, no MC traffic.
	access(t, lb, lb.bridges[1].L1, false, 0x5004, 4, 0)
	if lb.bridges[0].MC.Reads != reads {
		t.Fatal("cached line fetched from MC again")
	}
}

func TestNucaReadWrite(t *testing.T) {
	am := &AddressMap{LineBytes: 32, Nodes: 4, Controllers: []noc.NodeID{0}}
	lb := newLoopback(4)
	for i, b := range lb.bridges {
		b.Dir = NewDirectory(noc.NodeID(i), am, b)
	}
	lb.bridges[0].MC = NewController(0, 5, 4, lb.bridges[0])
	port := NewNucaPort(2, am, lb.bridges[2])
	lb.bridges[2].Nuca = port
	drive := func(write bool, addr uint32, size int, wdata uint64) uint64 {
		for cycle := uint64(0); cycle < 10_000; cycle++ {
			v, done := port.Access(cycle, write, addr, size, wdata)
			if done {
				return v
			}
			lb.step(cycle)
		}
		t.Fatal("NUCA access hung")
		return 0
	}
	drive(true, 0x3000, 4, 777)
	if v := drive(false, 0x3000, 4, 0); v != 777 {
		t.Fatalf("NUCA read back %d", v)
	}
}

func TestAddressMapProperties(t *testing.T) {
	am := &AddressMap{LineBytes: 32, Nodes: 16, Controllers: []noc.NodeID{0, 5}}
	if err := quick.Check(func(addr uint32) bool {
		la := am.LineAddr(addr)
		if la%32 != 0 || la > addr || addr-la >= 32 {
			return false
		}
		h := am.Home(addr)
		if h != am.Home(la) || h < 0 || int(h) >= 16 {
			return false
		}
		c := am.Controller(addr)
		return c == 0 || c == 5
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStorePreloadReadBack(t *testing.T) {
	s := NewStore(32)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	s.Preload(0x100C, data) // deliberately unaligned, spans lines
	got := s.ReadBytes(0x100C, 100)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], data[i])
		}
	}
}

func TestControllerQueueDepthLimitsService(t *testing.T) {
	var responses int
	ctl := NewController(0, 10, 2, NewBridge(0, func(p noc.Packet) {
		if p.Payload.(*Message).Type == MsgMemData {
			responses++
		}
	}))
	for i := 0; i < 6; i++ {
		ctl.Deliver(&Message{Type: MsgMemRead, Addr: uint32(i * 32), Requester: 1}, 1, 0)
	}
	for c := uint64(1); c < 100; c++ {
		ctl.Tick(c)
	}
	if responses != 6 {
		t.Fatalf("served %d of 6 requests", responses)
	}
	if ctl.MaxQueued < 6 {
		t.Fatalf("max queue %d", ctl.MaxQueued)
	}
}

func TestFlitsForMessage(t *testing.T) {
	if n := flitsFor(&Message{}); n != 1 {
		t.Fatalf("header-only message %d flits", n)
	}
	if n := flitsFor(&Message{Data: make([]byte, 32)}); n != 5 {
		t.Fatalf("32B message %d flits, want 5", n)
	}
}

// A GetM on a line shared by nodes 9, 2, 14 and the requester invalidates
// 2, 9 and 14 — in that order, the order the packets are injected in —
// and tells the requester to collect three acknowledgements.
func TestGetMInvalidatesSharersInNodeOrder(t *testing.T) {
	const home, requester = 0, 5
	am := &AddressMap{LineBytes: 32, Nodes: 16, Controllers: []noc.NodeID{0}}
	var sent []noc.Packet
	b := NewBridge(home, func(p noc.Packet) { sent = append(sent, p) })
	b.Dir = NewDirectory(home, am, b)
	b.MC = NewController(home, 1, 4, b)
	const line = 0x4000 // line index 512: homed at node 0 of 16
	cycle := uint64(0)
	request := func(t MsgType, from noc.NodeID) {
		b.Dir.Deliver(&Message{Type: t, Addr: line, Requester: from, Txn: 77}, from, cycle)
		for end := cycle + 10; cycle < end; cycle++ { // first touch goes through the controller
			b.Tick(cycle)
		}
	}
	for _, s := range []noc.NodeID{9, 2, 14, requester} {
		request(MsgGetS, s)
	}
	sent = nil
	request(MsgGetM, requester)
	var got []string
	for _, p := range sent {
		m := p.Payload.(*Message)
		got = append(got, fmt.Sprintf("%v->%d acks=%d txn=%d", m.Type, p.Dst, m.AckCount, m.Txn))
	}
	want := []string{"Inv->2 acks=0 txn=77", "Inv->9 acks=0 txn=77", "Inv->14 acks=0 txn=77", "Data->5 acks=3 txn=77"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("directory sent %v, want %v", got, want)
	}
}
