package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"hornet/internal/noc"
	"hornet/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	tr := &Trace{}
	tr.Add(10, 1, 2, 8)
	tr.AddPeriodic(100, 3, 4, 2, 50, 5)
	tr.Add(5, 0, 7, 1)
	tr.Sort()

	var sb strings.Builder
	if err := tr.Write(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != 3 {
		t.Fatalf("round trip lost events: %d", len(back.Events))
	}
	if back.Events[0].Cycle != 5 || back.Events[2].Period != 50 || back.Events[2].Count != 5 {
		t.Fatalf("round trip corrupted: %+v", back.Events)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"1 2 3",                      // too few fields
		"1 2 3 4 5",                  // five fields
		"a b c d",                    // non-numeric
		"1 2 3 0",                    // zero flits
		"1 2 3 65536",                // more flits than a flit can count
		"1 2 3 18446744073709551615", // ... and more than an int holds
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded", c)
		}
	}
	// The longest countable packet is fine.
	if tr, err := Read(strings.NewReader("1 2 3 65535\n")); err != nil || tr.Events[0].Flits != 65535 {
		t.Fatalf("Read at 65535 flits: %v", err)
	}
	// Comments and blanks are fine.
	if _, err := Read(strings.NewReader("# header\n\n1 2 3 4\n")); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorSchedulesInOrder(t *testing.T) {
	tr := &Trace{}
	tr.Add(30, 2, 5, 8)
	tr.Add(10, 2, 6, 8)
	tr.AddPeriodic(20, 2, 7, 4, 15, 2)
	tr.Add(10, 3, 1, 8) // other node's event: ignored by node 2's injector

	inj := NewInjector(2, tr, 0)
	if inj.Pending() != 3 {
		t.Fatalf("pending %d, want 3", inj.Pending())
	}
	var got []struct {
		cycle uint64
		dst   noc.NodeID
	}
	for c := uint64(0); c < 60; c++ {
		inj.Tick(c, func(p noc.Packet) {
			got = append(got, struct {
				cycle uint64
				dst   noc.NodeID
			}{c, p.Dst})
		})
	}
	want := []struct {
		cycle uint64
		dst   noc.NodeID
	}{{10, 6}, {20, 7}, {30, 5}, {35, 7}}
	if len(got) != len(want) {
		t.Fatalf("got %d injections %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("injection %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if inj.Pending() != 0 {
		t.Fatalf("injector still pending %d", inj.Pending())
	}
}

func TestInjectorNextEvent(t *testing.T) {
	tr := &Trace{}
	tr.Add(100, 0, 1, 8)
	inj := NewInjector(0, tr, 0)
	if ev := inj.NextEvent(10); ev != 100 {
		t.Fatalf("NextEvent(10) = %d, want 100", ev)
	}
	inj.Tick(100, func(noc.Packet) {})
	if ev := inj.NextEvent(100); ev != sim.NoEvent {
		t.Fatalf("exhausted injector NextEvent = %d, want NoEvent", ev)
	}
}

func TestInjectorSkipsSelfTraffic(t *testing.T) {
	tr := &Trace{}
	tr.Add(1, 4, 4, 8) // src == dst
	inj := NewInjector(4, tr, 0)
	count := 0
	inj.Tick(5, func(noc.Packet) { count++ })
	if count != 0 {
		t.Fatal("self-addressed trace event was injected")
	}
}

func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(cycles []uint16, flits uint8) bool {
		tr := &Trace{}
		for i, c := range cycles {
			tr.Add(uint64(c), noc.NodeID(i%16), noc.NodeID((i+1)%16), int(flits%32)+1)
		}
		var sb strings.Builder
		if tr.Write(&sb) != nil {
			return false
		}
		back, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		return len(back.Events) == len(tr.Events)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
