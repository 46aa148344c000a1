package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestTimelineSpans(t *testing.T) {
	tl := NewTimeline("job-000001 e2e", time.Now())
	tl.Begin("queued", nil)
	tl.Begin("queued", map[string]string{"dup": "ignored"}) // idempotent
	tl.End("queued", map[string]string{"worker": "w1"})
	tl.Begin("running", nil)
	tl.Instant("checkpoint", map[string]string{"cycle": "500"})
	tl.Begin("migrate", map[string]string{"from": "w1"})
	tl.End("migrate", map[string]string{"to": "w2"})
	tl.End("never-opened", nil) // no-op

	doc := tl.Document()
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("DisplayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	byName := map[string]TraceEvent{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name] = ev
	}
	if meta, ok := byName["process_name"]; !ok || meta.Phase != "M" || meta.Args["name"] != "job-000001 e2e" {
		t.Errorf("missing/bad process_name metadata: %+v", meta)
	}
	if q := byName["queued"]; q.Phase != "X" || q.Args["worker"] != "w1" || q.Args["dup"] != nil {
		t.Errorf("queued span wrong: %+v", q)
	}
	if r := byName["running"]; r.Phase != "B" {
		t.Errorf("open running span should render as B, got %+v", r)
	}
	if m := byName["migrate"]; m.Phase != "X" || m.Args["from"] != "w1" || m.Args["to"] != "w2" {
		t.Errorf("migrate span wrong: %+v", m)
	}
	if c := byName["checkpoint"]; c.Phase != "i" || c.Args["cycle"] != "500" {
		t.Errorf("checkpoint instant wrong: %+v", c)
	}
	if _, ok := byName["never-opened"]; ok {
		t.Error("End without Begin recorded an event")
	}

	// The document must round-trip as Chrome trace_event JSON.
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back TraceDocument
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.TraceEvents) != len(doc.TraceEvents) {
		t.Errorf("round-trip lost events: %d != %d", len(back.TraceEvents), len(doc.TraceEvents))
	}
	var generic map[string]any
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatalf("unmarshal generic: %v", err)
	}
	if _, ok := generic["traceEvents"].([]any); !ok {
		t.Errorf("traceEvents is not a JSON array: %T", generic["traceEvents"])
	}
}

func TestTimelineCap(t *testing.T) {
	tl := NewTimeline("capped", time.Now())
	for i := 0; i < defaultTimelineCap+50; i++ {
		tl.Instant("tick", nil)
	}
	doc := tl.Document()
	// +1 for the metadata event.
	if len(doc.TraceEvents) != defaultTimelineCap+1 {
		t.Errorf("cap not enforced: %d events", len(doc.TraceEvents))
	}
	if doc.OtherData["dropped_events"] != "50" {
		t.Errorf("dropped_events = %q, want 50", doc.OtherData["dropped_events"])
	}
}

func TestProbeSnapshot(t *testing.T) {
	p := NewSimProbe()
	pp0 := p.Partition(0, 2)
	pp1 := p.Partition(1, 2)
	pp0.AddCycles(100)
	pp0.AddCompute(80 * time.Millisecond)
	pp0.AddBarrier(20*time.Millisecond, false)
	pp1.AddCycles(100)
	pp1.AddCompute(50 * time.Millisecond)
	pp1.AddBarrier(30*time.Millisecond, true)
	pp1.AddBarrier(20*time.Millisecond, true)
	p.RunDone(100, 25, 100*time.Millisecond)

	s := p.Snapshot()
	if s.Runs != 1 || s.Cycles != 100 || s.SkippedCycles != 25 {
		t.Errorf("totals wrong: %+v", s)
	}
	if s.CyclesPerSec < 999 || s.CyclesPerSec > 1001 {
		t.Errorf("cycles/sec = %v, want ~1000", s.CyclesPerSec)
	}
	if len(s.Partitions) != 2 {
		t.Fatalf("partitions = %d, want 2", len(s.Partitions))
	}
	if s.Partitions[1].Worker != 1 || s.Partitions[1].Cycles != 100 {
		t.Errorf("partition 1 wrong: %+v", s.Partitions[1])
	}
	if got := s.BarrierWallMS(); got < 69.9 || got > 70.1 {
		t.Errorf("BarrierWallMS = %v, want 70", got)
	}
	if s.Partitions[0].BarrierParks != 0 || s.Partitions[1].BarrierParks != 2 || s.BarrierParks() != 2 {
		t.Errorf("barrier parks wrong: %+v", s.Partitions)
	}
	if got := s.ComputeWallMS(); got < 129.9 || got > 130.1 {
		t.Errorf("ComputeWallMS = %v, want 130", got)
	}
	// Same-worker Partition across a second run accumulates.
	if p.Partition(0, 2) != pp0 {
		t.Error("Partition not stable across runs")
	}
}
