package backend

import (
	"encoding/json"
	"reflect"
	"testing"

	"hornet/internal/obs"
)

// TestEventCodecRoundTrip: every Sink call survives EventSink → TaskEvent
// JSON → Deliver unchanged, except Note, which is the coordinator's own
// and never goes on the wire; an unknown or incomplete event is an error.
func TestEventCodecRoundTrip(t *testing.T) {
	engine := obs.ProbeSnapshot{Probe: 9, Runs: 1, Cycles: 400, WallMS: 2,
		Partitions: []obs.PartitionSnapshot{{Worker: 0, TileHi: 16, Cycles: 400, ComputeMS: 1.5, BarrierMS: 0.5}}}
	telemetry := obs.TelemetrySnapshot{Cycle: 256, TileHi: 16}
	for _, tc := range []struct {
		name string
		call func(Sink)
	}{
		{"progress", func(s Sink) { s.Progress(2, 5, "run-b") }},
		{"resumed", func(s Sink) { s.Resumed("run-a", 4_000) }},
		{"checkpoint", func(s Sink) { s.Checkpoint("run-a", 8_000) }},
		{"engine", func(s Sink) { s.Engine(engine) }},
		{"telemetry", func(s Sink) { s.Telemetry(telemetry) }},
		{"note", func(s Sink) { s.Note("dispatched", map[string]string{"worker": "w1"}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, got := &callLog{}, &callLog{}
			tc.call(want)
			var wire [][]byte
			tc.call(EventSink(func(ev TaskEvent) {
				b, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				wire = append(wire, b)
			}))
			for _, b := range wire {
				var ev TaskEvent
				if err := json.Unmarshal(b, &ev); err != nil {
					t.Fatal(err)
				}
				if err := ev.Deliver(got); err != nil {
					t.Fatalf("Deliver(%s): %v", b, err)
				}
			}
			if tc.name == "note" {
				if len(wire) != 0 || len(got.calls) != 0 {
					t.Fatalf("a note went on the wire: %q", wire)
				}
				return
			}
			if len(wire) != 1 || !reflect.DeepEqual(got.calls, want.calls) {
				t.Fatalf("delivered %#v from %q, want %#v", got.calls, wire, want.calls)
			}
		})
	}
	for _, ev := range []TaskEvent{{Type: "stalled"}, {Type: ""}, {Type: "engine"}, {Type: "telemetry"}} {
		if err := ev.Deliver(&callLog{}); err == nil {
			t.Errorf("Deliver(%+v) accepted a malformed event", ev)
		}
	}
}

// callLog records every Sink call with its arguments.
type callLog struct{ calls []any }

func (c *callLog) Progress(done, total int, key string) {
	c.calls = append(c.calls, []any{"progress", done, total, key})
}
func (c *callLog) Resumed(key string, cycle uint64) {
	c.calls = append(c.calls, []any{"resumed", key, cycle})
}
func (c *callLog) Checkpoint(key string, cycle uint64) {
	c.calls = append(c.calls, []any{"checkpoint", key, cycle})
}
func (c *callLog) Engine(s obs.ProbeSnapshot) { c.calls = append(c.calls, []any{"engine", s}) }
func (c *callLog) Telemetry(s obs.TelemetrySnapshot) {
	c.calls = append(c.calls, []any{"telemetry", s})
}
func (c *callLog) Note(event string, fields map[string]string) {
	c.calls = append(c.calls, []any{"note", event, fields})
}
