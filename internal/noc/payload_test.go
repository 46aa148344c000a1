package noc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hornet/internal/snapshot"
)

// stepPeriod advances routers period cycles from cycle from, as an engine
// with that many workers and that sync_period does: each worker runs both
// edges of every cycle of its share of the routers, and all meet only after
// the last. A producer may then run up to period cycles ahead of the
// consumer of its pushes.
func stepPeriod(routers []*Router, workers int, from uint64, period int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []*Router
			for i := w; i < len(routers); i += workers {
				mine = append(mine, routers[i])
			}
			for c := from; c < from+uint64(period); c++ {
				step(mine, c)
			}
		}(w)
	}
	wg.Wait()
}

// residentPayloads counts the payloads a machine holds outside its
// injection queues: in payload rings, and in reassembly at the ejection
// ports.
func residentPayloads(routers []*Router) int {
	n := 0
	for _, r := range routers {
		for _, p := range r.Ports() {
			for _, b := range p.In {
				if ring := b.cell().payloads.Load(); ring != nil {
					for _, v := range *ring {
						if v != nil {
							n++
						}
					}
				}
			}
		}
		for _, a := range r.assembly {
			if a.payload != nil {
				n++
			}
		}
	}
	return n
}

// TestPayloadRingConcurrent streams protocol-style traffic (every other
// packet carries a payload, of 1 to 5 flits) through a congested line of
// routers, stepped by one worker and by three, with a barrier every cycle
// and at sync_period 5. The payload ring is a path between threads: the
// producer writes a slot's entry before it publishes the flit, the consumer
// takes it before it advances past the flit. Every packet must arrive with
// its own payload, or none if it was offered none, exactly once; no ring
// entry may outlive its flit; and a snapshot taken mid-flight, with
// payloads in rings and in reassembly, must restore to the same bytes.
func TestPayloadRingConcurrent(t *testing.T) {
	const n = 4
	for _, workers := range []int{1, 3} {
		for _, period := range []int{1, 5} {
			t.Run(fmt.Sprintf("workers%d/period%d", workers, period), func(t *testing.T) {
				payloadRing(t, n, workers, period)
			})
		}
	}
}

func payloadRing(t *testing.T, n, workers, period int) {
	routers, received := pipeline(t, n, 2, 3, VCADynamic)
	want := map[FlowID][]any{} // per flow, the payload of the packet with FlowSeq i+1
	offered := 0
	offer := func() {
		for _, r := range routers[:n-1] {
			for r.PendingPackets() < 12 {
				dst := r.ID + 1 + NodeID(offered%(n-1-int(r.ID)))
				p := Packet{Flow: MakeFlow(r.ID, dst, uint8(offered%3)), Dst: dst, Flits: 1 + offered%5}
				var payload any
				if offered%2 == 0 {
					payload = []byte(fmt.Sprintf("%v#%d", p.Flow, len(want[p.Flow])+1))
					p.Payload = payload
				}
				want[p.Flow] = append(want[p.Flow], payload)
				r.OfferPacket(p)
				offered++
			}
		}
	}
	const snapAt = 300 // a barrier at every period tried
	cycle, snapped := uint64(0), false
	for ; cycle < 1500; cycle += uint64(period) {
		if cycle < 1200 {
			offer()
		}
		if cycle == snapAt {
			snapped = true
			if residentPayloads(routers) == 0 {
				t.Fatal("no payload in flight at the snapshot: the round trip checked nothing")
			}
			fresh, _ := pipeline(t, n, 2, 3, VCADynamic)
			for i, r := range routers {
				blob := saveRouter(t, r, cycle)
				loadRouter(t, fresh[i], blob)
				if again := saveRouter(t, fresh[i], cycle); !bytes.Equal(again, blob) {
					t.Fatalf("router %d: the restored router saves %d bytes unlike the %d it was restored from", i, len(again), len(blob))
				}
			}
		}
		stepPeriod(routers, workers, cycle, period)
	}
	if !snapped {
		t.Fatal("the run never met at the snapshot cycle")
	}
	delivered := 0
	for node, rec := range received {
		seen := map[[2]uint64]bool{}
		for _, p := range *rec {
			key := [2]uint64{uint64(p.Flow), p.FlowSeq}
			if seen[key] {
				t.Fatalf("router %d received packet %d of flow %v twice", node, p.FlowSeq, p.Flow)
			}
			seen[key] = true
			if p.Dst != NodeID(node) || p.FlowSeq < 1 || p.FlowSeq > uint64(len(want[p.Flow])) {
				t.Fatalf("router %d received %+v, which was never offered to it", node, p)
			}
			got, exp := p.Payload, want[p.Flow][p.FlowSeq-1]
			if gb, ok := got.([]byte); (exp == nil) != (got == nil) || (exp != nil && (!ok || !bytes.Equal(gb, exp.([]byte)))) {
				t.Fatalf("router %d: packet %d of flow %v carries payload %v, want %v", node, p.FlowSeq, p.Flow, got, exp)
			}
		}
		delivered += len(*rec)
	}
	if delivered != offered {
		t.Fatalf("%d of %d packets delivered", delivered, offered)
	}
	if left := residentPayloads(routers); left != 0 {
		t.Fatalf("%d payloads left behind in a drained machine", left)
	}
}

// writeFlitFields writes a flit the way saveFlit does, but with the
// endpoints given rather than the flow's: bytes no flit can produce.
func writeFlitFields(w *snapshot.Writer, f Flit, src, dst NodeID, payload any) {
	w.Uint8(uint8(f.Kind))
	w.Uint32(uint32(f.Flow))
	w.Uint64(f.Packet)
	w.Uint16(f.Seq)
	w.Uint16(f.Len)
	w.Uint64(f.FlowSeq)
	w.Int32(int32(src))
	w.Int32(int32(dst))
	w.Uint64(f.InjectedAt)
	w.Uint64(f.HeadInjectedAt)
	w.Uint64(f.VisibleAt)
	w.Uint64(f.Latency)
	w.Uint16(f.Hops)
	if err := snapshot.EncodePayload(w, payload); err != nil {
		panic(err)
	}
}

// TestRestoredFlitMatchesItsFlow: a flit's endpoints are its flow's and only
// a head flit carries a payload, so the codec writes the one from the flow
// and keeps the other beside the slot. Bytes that break either rule are
// corrupt in a restored buffer, and are rejected as such rather than
// silently rewritten.
func TestRestoredFlitMatchesItsFlow(t *testing.T) {
	flow := MakeFlow(0, 1, 0)
	head := Flit{Kind: Head, Flow: flow, Packet: 5, Len: 2}
	body := Flit{Kind: Tail, Flow: flow, Packet: 5, Seq: 1, Len: 2}
	cases := []struct {
		name     string
		f        Flit
		src, dst NodeID
		payload  any
		detail   string // "" when accepted
	}{
		{"consistent head with a payload", head, 0, 1, []byte("x"), ""},
		{"foreign source", head, 2, 1, nil, "names endpoints 2->1"},
		{"foreign destination", head, 0, 3, nil, "names endpoints 0->3"},
		{"tail with a payload", body, 0, 1, []byte("x"), "tail flit of packet 5 carries a payload"},
	}
	for _, c := range cases {
		t.Run("restore/"+c.name, func(t *testing.T) {
			snap := snapshot.New("buffer", 0)
			w := snap.Section("buffer")
			w.Int(2) // capacity
			w.Uint64(0)
			w.Int(1)
			writeFlitFields(w, c.f, c.src, c.dst, c.payload)
			rd, err := snap.Open("buffer")
			if err != nil {
				t.Fatal(err)
			}
			b := NewVCBuffer(2)
			checkCorrupt(t, b.LoadState(rd), c.detail)
			if c.detail == "" {
				if got, _ := b.Peek(0); got == nil || *got != c.f || !bytes.Equal(b.payloadAt(0).([]byte), c.payload.([]byte)) {
					t.Fatalf("restored %v with payload %v", got, b.payloadAt(0))
				}
			}
		})
	}
}

func checkCorrupt(t *testing.T, err error, detail string) {
	t.Helper()
	var ce *snapshot.CorruptError
	switch {
	case detail == "" && err != nil:
		t.Fatalf("rejected: %v", err)
	case detail != "" && (!errors.As(err, &ce) || !strings.Contains(ce.Detail, detail)):
		t.Fatalf("got %v, want a corrupt-snapshot error naming %q", err, detail)
	}
}
