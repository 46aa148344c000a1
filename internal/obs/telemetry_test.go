package obs

import (
	"reflect"
	"testing"
)

// TopLinks must order by occupancy descending with a deterministic
// (From, To) tie-break, and clamp to the available links.
func TestTopLinks(t *testing.T) {
	s := TelemetrySnapshot{Links: []LinkTelemetry{
		{From: 3, To: 4, Occupancy: 1},
		{From: 0, To: 1, Occupancy: 5},
		{From: 2, To: 1, Occupancy: 5},
		{From: 1, To: 2, Occupancy: 0},
	}}
	top := s.TopLinks(3)
	want := []LinkTelemetry{
		{From: 0, To: 1, Occupancy: 5},
		{From: 2, To: 1, Occupancy: 5},
		{From: 3, To: 4, Occupancy: 1},
	}
	if !reflect.DeepEqual(top, want) {
		t.Errorf("TopLinks(3) = %+v, want %+v", top, want)
	}
	if got := s.TopLinks(10); len(got) != 4 {
		t.Errorf("TopLinks(10) returned %d links, want all 4", len(got))
	}
	if len(s.TopLinks(0)) != 0 {
		t.Errorf("TopLinks(0) returned links")
	}
	// The input order must not be disturbed (TopLinks copies).
	if s.Links[0].From != 3 {
		t.Errorf("TopLinks mutated the snapshot's link order")
	}
}
