package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func rec(i int) Record {
	return Record{
		Type:    TypeSubmit,
		Job:     fmt.Sprintf("job-%06d", i),
		Request: json.RawMessage(fmt.Sprintf(`{"seed":%d}`, i)),
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(Record{Type: TypeAssign, Job: "job-000003",
		Task: "task-000009", Slots: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 11 {
		t.Fatalf("replayed %d records, want 11", len(recs))
	}
	for i := 0; i < 10; i++ {
		if recs[i].Job != fmt.Sprintf("job-%06d", i) || recs[i].Type != TypeSubmit {
			t.Fatalf("record %d mismatched: %+v", i, recs[i])
		}
	}
	last := recs[10]
	if last.Type != TypeAssign || last.Task != "task-000009" || last.Slots != 2 {
		t.Fatalf("assign record corrupted on round-trip: %+v", last)
	}
	if _, _, replayed, truncated := j2.Stats(); replayed != 11 || truncated {
		t.Fatalf("stats after clean reopen: replayed=%d truncated=%v", replayed, truncated)
	}
}

// A crash mid-append leaves a torn tail frame; Open must recover every
// intact record, cut the tail, and leave the journal appendable.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, FileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write: a length prefix with half a payload.
	torn := append(append([]byte{}, b...), 0xFF, 0x00, 0x00, 0x00, 0xAA, 0xBB)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("recovered %d records past a torn tail, want 5", len(recs))
	}
	if _, _, _, truncated := j2.Stats(); !truncated {
		t.Fatal("Open did not report the torn-tail truncation")
	}
	// The log must be clean again: append and reopen.
	if err := j2.Append(rec(99)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || recs[5].Job != "job-000099" {
		t.Fatalf("append after truncation lost: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

// Flipping a byte inside an earlier record must stop replay at the
// last record before the damage — suffix records are unreachable, by
// design: the frame stream has no resync marker.
func TestCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, FileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x40 // inside the last record's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("recovered %d records with a corrupt final frame, want 4", len(recs))
	}
}

func TestCompactRewritesAtomically(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Since() != 100 {
		t.Fatalf("Since = %d before compaction, want 100", j.Since())
	}
	compacted := []Record{rec(7), rec(42)}
	if err := j.Compact(func() []Record { return compacted }); err != nil {
		t.Fatal(err)
	}
	if j.Since() != 0 {
		t.Fatalf("Since = %d after compaction, want 0", j.Since())
	}
	// Appends after compaction land after the compacted set.
	if err := j.Append(rec(1000)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after compaction, want 3", len(recs))
	}
	if recs[0].Job != "job-000007" || recs[1].Job != "job-000042" || recs[2].Job != "job-001000" {
		t.Fatalf("compacted stream out of order: %+v", recs)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(rec(0)); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := j.Compact(func() []Record { return nil }); err != ErrClosed {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
}

// The compaction rule keeps rewrite work linear in appends: a live set
// that grows by one record per two appends, compacted whenever the
// journal says so, must rewrite at most 3× the appends in total (a
// fixed every-256-records rule rewrites about 20× here), and the log
// must never hold more than 2× the last compaction's size + compactFloor.
func TestCompactionWorkIsLinear(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const appends = 20_000
	var live []Record
	onDisk := 0
	for i := 0; i < appends; i++ {
		r := rec(i)
		if i%2 == 0 {
			live = append(live, r)
		}
		due, err := j.AppendDue(r)
		if err != nil {
			t.Fatal(err)
		}
		onDisk++
		if last, _ := j.Compacted(); onDisk > 2*last+compactFloor {
			t.Fatalf("append %d: log holds %d records, last compaction wrote %d", i, onDisk, last)
		}
		if due {
			if err := j.Compact(func() []Record { return live }); err != nil {
				t.Fatal(err)
			}
			onDisk = len(live)
		}
	}
	_, compactions, _, _ := j.Stats()
	_, rewritten := j.Compacted()
	t.Logf("%d appends: %d compactions rewrote %d records", appends, compactions, rewritten)
	if rewritten > 3*appends {
		t.Fatalf("compactions rewrote %d records over %d appends, want at most %d",
			rewritten, appends, 3*appends)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != onDisk {
		t.Fatalf("replayed %d records, the log should hold %d", len(recs), onDisk)
	}
}

// A log replayed at Open counts as appended since a compaction of
// nothing: with compactFloor records or more, the first append is due,
// and once that compaction has run the next append is not.
func TestReplayedLogCompactsOnFirstAppend(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < compactFloor; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != compactFloor {
		t.Fatalf("replayed %d records, want %d", len(recs), compactFloor)
	}
	due, err := j.AppendDue(rec(compactFloor))
	if err != nil || !due {
		t.Fatalf("first append after replaying %d records: due=%v err=%v, want due", len(recs), due, err)
	}
	if err := j.Compact(func() []Record { return recs[:10] }); err != nil {
		t.Fatal(err)
	}
	if due, err := j.AppendDue(rec(compactFloor + 1)); err != nil || due {
		t.Fatalf("append after the compaction: due=%v err=%v, want not due", due, err)
	}
}

// A compaction whose reopen fails has already replaced the file; the old
// handle points at the replaced inode, so a later append must land in
// the file at the journal's path or fail — never vanish into the old one.
func TestCompactReopenFailureLosesNoAppend(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	orig := openAppend
	defer func() { openAppend = orig }()
	errOpen := errors.New("too many open files")
	openAppend = func(string) (*os.File, error) { return nil, errOpen }

	if err := j.Compact(func() []Record { return []Record{rec(1)} }); !errors.Is(err, errOpen) {
		t.Fatalf("Compact with a failing reopen = %v, want %v", err, errOpen)
	}
	// While the file cannot be reopened, an append is an error.
	if err := j.Append(rec(10)); !errors.Is(err, errOpen) {
		t.Fatalf("Append while the reopen fails = %v, want %v", err, errOpen)
	}
	// Once it can, the append lands in the compacted file.
	openAppend = orig
	if err := j.Append(rec(11)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Job != "job-000001" || recs[1].Job != "job-000011" {
		t.Fatalf("after a failed reopen the log replays %+v, want job-000001 then job-000011", recs)
	}
}
