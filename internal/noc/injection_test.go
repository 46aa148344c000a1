package noc

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hornet/internal/snapshot"
)

// TestOfferPacketRejectsMalformed: a packet no flit can count, one whose
// destination is not its flow's, or one on a flow from another source, is
// a producer bug and panics at the offer.
func TestOfferPacketRejectsMalformed(t *testing.T) {
	routers, _ := pipeline(t, 3, 1, 2, VCADynamic)
	for _, p := range []Packet{
		{Flow: MakeFlow(0, 1, 0), Dst: 1, Flits: 0},
		{Flow: MakeFlow(0, 1, 0), Dst: 1, Flits: MaxPacketFlits + 1},
		{Flow: MakeFlow(0, 1, 0), Dst: 2, Flits: 1},
		{Flow: MakeFlow(1, 2, 0), Dst: 2, Flits: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OfferPacket(%+v) did not panic", p)
				}
			}()
			routers[0].OfferPacket(p)
		}()
	}
	if n := routers[0].PendingPackets(); n != 0 {
		t.Fatalf("%d malformed packets queued", n)
	}
}

// TestInjectionQueueRoundTrip: a queue with a consumed prefix, after the
// reclaim path has run, mixing packets with and without payloads, saved
// while a packet streams in, restores into a fresh router that dequeues
// the very packets the uninterrupted router injects, and saves to the
// same bytes.
func TestInjectionQueueRoundTrip(t *testing.T) {
	routers, received := pipeline(t, 2, 2, 4, VCADynamic)
	src := routers[0]
	var want []Packet // every offered packet, as OfferPacket stamps it
	offer := func() {
		i := len(want)
		p := Packet{Flow: MakeFlow(0, 1, uint8(i%2)), Dst: 1, Flits: 1 + i%3}
		if i%4 != 3 {
			p.Payload = []byte{byte(i), 7}
		}
		src.OfferPacket(p)
		p.ID, p.Src, p.FlowSeq = 1<<40|uint64(i+1), 0, uint64(i/2+1)
		want = append(want, p)
	}

	// Fill the queue to its capacity and drain more than half of it: the
	// next offer reclaims the consumed prefix instead of growing.
	q := &src.pending
	for q.size() < 8 || len(q.items) < cap(q.items) {
		offer()
	}
	cycle := uint64(0)
	for ; q.head <= len(q.items)/2; cycle++ {
		step(routers, cycle)
	}
	capBefore := cap(q.items)
	offer()
	if q.head != 0 || cap(q.items) != capBefore {
		t.Fatalf("the offer did not reclaim: head %d, capacity %d -> %d", q.head, capBefore, cap(q.items))
	}
	for i := 0; i < 6; i++ {
		offer()
	}
	for ; !src.streaming || q.head == 0; cycle++ {
		step(routers, cycle)
	}

	blob := saveRouter(t, src, cycle)
	fresh, _ := pipeline(t, 2, 2, 4, VCADynamic)
	loadRouter(t, fresh[0], blob)
	if again := saveRouter(t, fresh[0], cycle); !bytes.Equal(again, blob) {
		t.Fatal("the restored router saves to different bytes")
	}
	queued := q.size()
	if queued < 2 || fresh[0].PendingPackets() != queued+1 {
		t.Fatalf("restored %d pending packets (%d queued and one streaming when saved)", fresh[0].PendingPackets(), queued)
	}
	for i, w := range want[len(want)-queued:] {
		if got := fresh[0].popPending(); !reflect.DeepEqual(got, w) {
			t.Fatalf("restored queue entry %d: %+v, want %+v", i, got, w)
		}
	}

	// The uninterrupted router injects every offered packet as stamped.
	for ; len(*received[1]) < len(want) && cycle < 2000; cycle++ {
		step(routers, cycle)
	}
	got := map[uint64]Packet{}
	for _, p := range *received[1] {
		p.Latency = 0
		got[p.ID] = p
	}
	for _, w := range want {
		if !reflect.DeepEqual(got[w.ID], w) {
			t.Fatalf("delivered %+v, want %+v", got[w.ID], w)
		}
	}
}

// TestRestoreRejectsCorruptInjectionQueue: a queued packet in a router's
// section that its 8-byte record could not rebuild exactly is a corrupt
// snapshot, reported as one naming the router and the field, not a panic
// (or a 2^40-flit allocation) on the router's next cycle.
func TestRestoreRejectsCorruptInjectionQueue(t *testing.T) {
	routers, _ := pipeline(t, 2, 1, 2, VCADynamic)
	for i := 0; i < 4; i++ {
		p := Packet{Flow: MakeFlow(0, 1, 0), Dst: 1, Flits: 3}
		if i == 2 {
			p.Payload = []byte("x")
		}
		routers[0].OfferPacket(p)
	}
	step(routers, 0) // the first packet starts streaming; three stay queued
	snap, err := snapshot.DecodeBytes(saveRouter(t, routers[0], 1))
	if err != nil {
		t.Fatal(err)
	}
	section, _ := snap.SectionPayload("router")
	rd, err := snap.Open("router")
	if err != nil {
		t.Fatal(err)
	}
	counter := rd.Uint64()
	queue := make([]Packet, rd.Count(1<<24))
	for i := range queue {
		queue[i] = DecodePacket(rd)
	}
	if err := rd.Err(); err != nil || len(queue) != 3 {
		t.Fatalf("decoded %d queued packets: %v", len(queue), err)
	}
	rest := section[len(section)-rd.Len():] // everything after the queue

	// load writes counter and q where the router's section has them and
	// restores the result into a fresh router.
	load := func(counter uint64, q []Packet) error {
		w := snapshot.New("", 0)
		sw := w.Section("router")
		sw.Uint64(counter)
		sw.Int(len(q))
		for _, p := range q {
			if err := EncodePacket(sw, p); err != nil {
				t.Fatal(err)
			}
		}
		head, _ := w.SectionPayload("router")
		snap.SetSection("router", append(head, rest...))
		rd, err := snap.Open("router")
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := pipeline(t, 2, 1, 2, VCADynamic)
		if err := fresh[0].LoadState(rd, snap.Clock); err != nil {
			return err
		}
		return rd.Close()
	}
	if err := load(counter, queue); err != nil {
		t.Fatalf("the untouched queue, written back: %v", err)
	}

	for _, tc := range []struct {
		name  string
		edit  func(counter *uint64, q []Packet)
		field string
	}{
		{"zero flits", func(_ *uint64, q []Packet) { q[1].Flits = 0 }, "queued packet 1: flits 0 outside [1, 65535]"},
		{"negative flits", func(_ *uint64, q []Packet) { q[1].Flits = -5 }, "queued packet 1: flits -5"},
		{"2^40 flits", func(_ *uint64, q []Packet) { q[2].Flits = 1 << 40 }, "queued packet 2: flits 1099511627776"},
		{"more flits than a flit counts", func(_ *uint64, q []Packet) { q[0].Flits = 65536 }, "queued packet 0: flits 65536"},
		{"foreign source", func(_ *uint64, q []Packet) { q[0].Src = 1 }, "queued packet 0: src 1"},
		{"destination off the flow", func(_ *uint64, q []Packet) { q[2].Dst = 0 }, "queued packet 2: dst 0"},
		{"latency", func(_ *uint64, q []Packet) { q[1].Latency = 9 }, "queued packet 1: latency 9"},
		{"ids out of order", func(_ *uint64, q []Packet) { q[0].ID, q[1].ID = q[1].ID, q[0].ID }, "queued packet 0: id"},
		{"ids not ending at the counter", func(c *uint64, _ []Packet) { *c++ }, "queued packet 0: id"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, q := counter, slices.Clone(queue)
			tc.edit(&c, q)
			err := load(c, q)
			var ce *snapshot.CorruptError
			if !errors.As(err, &ce) || !strings.Contains(ce.Detail, "router 0: "+tc.field) {
				t.Fatalf("LoadState = %v, want a CorruptError naming %q", err, "router 0: "+tc.field)
			}
		})
	}
}
