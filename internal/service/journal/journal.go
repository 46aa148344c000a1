// Package journal is the coordinator's write-ahead log: an append-only
// record stream that survives a SIGKILLed hornet-serve and lets the
// restarted process rebuild its job store, re-enqueue in-flight work,
// and re-adopt executions the fleet is still running.
//
// The on-disk format follows the snapshot container's conventions
// (magic + version header, IEEE CRC-32 per payload): a fixed header
// ("HJRNL1\n" + format version) followed by length-prefixed,
// CRC-framed JSON records:
//
//	uint32  payload length (little-endian)
//	uint32  IEEE CRC-32 of the payload
//	[]byte  JSON-encoded Record
//
// Appends are single write(2) calls with no application-side
// buffering, so a killed process loses at most the record being
// written when it died: the kernel page cache holds everything
// already written. Replay stops at the first torn or corrupt frame
// and truncates the file back to the last intact record, which makes
// a crash mid-append indistinguishable from a crash just before it.
//
// Compaction rewrites the log atomically (via fsatomic's temp+rename)
// from a snapshot of live state. It is due once the records appended
// since the last compaction reach the number that compaction wrote plus
// 256 — the log has doubled — so the log holds at most 2 × (last
// compaction's size) + 256 records, and the records all compactions
// rewrite over a run stay proportional to the records appended, however
// many jobs the daemon retains.
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"hornet/internal/fsatomic"
)

// Record types. One record is one durable fact about one job; replay
// folds them in order, last write wins per field group.
const (
	// TypeSubmit carries the verbatim SubmitRequest JSON plus the
	// job's client-visible info at admission.
	TypeSubmit = "submit"
	// TypeState carries the job's client-visible info at a state
	// transition (queued→running, →done/failed/canceled).
	TypeState = "state"
	// TypeAssign records a fleet task ID bound to the job, so a
	// restarted coordinator can re-adopt the execution from the
	// worker that still runs it.
	TypeAssign = "assign"
	// TypeResult records the result-cache key of a finished job, so
	// replay can refault the document from the cache tier instead of
	// re-running it.
	TypeResult = "result"
)

// Record is one journal entry. Fields are a union over the record
// types; unused ones stay zero and are elided from the JSON.
type Record struct {
	Type string `json:"t"`
	Job  string `json:"job,omitempty"`

	// TypeSubmit: the verbatim submit request body.
	Request json.RawMessage `json:"request,omitempty"`
	// TypeSubmit/TypeState: the job's client-visible info snapshot
	// (service.JobInfo), kept opaque here so the journal does not
	// depend on the service package.
	Info json.RawMessage `json:"info,omitempty"`

	// TypeAssign.
	Task  string `json:"task,omitempty"`
	Slots int    `json:"slots,omitempty"`

	// TypeResult: the content-addressed result-cache key.
	Name string `json:"name,omitempty"`
	Hash string `json:"hash,omitempty"`
}

const (
	magic         = "HJRNL1\n"
	formatVersion = 1
	headerLen     = len(magic) + 2 // magic + uint16 version
	frameOverhead = 8              // uint32 length + uint32 CRC

	// maxRecord bounds a single frame on replay; anything larger is
	// treated as corruption (submit requests are capped at 16 MB by
	// the API layer, and every other record is tiny).
	maxRecord = 32 << 20

	// FileName is the journal's name inside its directory.
	FileName = "journal.wal"

	// compactFloor is the least number of appends between compactions:
	// a small live set still rewrites at most once per compactFloor
	// records.
	compactFloor = 256
)

// openAppend reopens the log for appending after a compaction renamed a
// new file into place. A variable so a test can make the reopen fail.
var openAppend = func(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// ErrClosed is returned by Append/Compact after Close.
var ErrClosed = errors.New("journal: closed")

// Journal is an open write-ahead log. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	path   string
	f      *os.File // nil after Close, or after a compaction whose reopen failed
	closed bool

	since       int    // records appended since the last compaction
	written     int    // records the last compaction wrote (0 after Open)
	appended    uint64 // lifetime append counter (metrics)
	compactions uint64 // lifetime compaction counter (metrics)
	rewritten   uint64 // lifetime records written by compactions (metrics)
	replayed    int    // records recovered by Open (metrics / logs)
	truncated   bool   // Open found and cut a torn tail
}

// Open reads the journal in dir (creating the directory and an empty
// log as needed), returns every intact record in append order, and
// leaves the file open for appending. A torn or corrupt tail — the
// signature of a crash mid-append — is truncated away, not an error.
func Open(dir string) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{path: path, f: f}
	recs, good, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	fi, statErr := f.Stat()
	if statErr != nil {
		f.Close()
		return nil, nil, statErr
	}
	if good == 0 {
		// Fresh (or unrecognizably damaged) log: start over with a
		// clean header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Write(header()); err != nil {
			f.Close()
			return nil, nil, err
		}
		j.truncated = fi.Size() > 0
		return j, nil, nil
	}
	if good < fi.Size() {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
		j.truncated = true
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j.replayed = len(recs)
	j.since = len(recs)
	return j, recs, nil
}

// header builds the file header: magic + uint16 format version.
func header() []byte {
	h := make([]byte, headerLen)
	copy(h, magic)
	binary.LittleEndian.PutUint16(h[len(magic):], formatVersion)
	return h
}

// readAll decodes records from the start of f, returning the intact
// prefix and the byte offset just past the last good frame. A missing
// or mismatched header yields (nil, 0): the caller rewrites the file.
func readAll(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(f)
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, 0, nil // empty or shorter than a header: fresh log
	}
	if string(hdr[:len(magic)]) != magic ||
		binary.LittleEndian.Uint16(hdr[len(magic):]) != formatVersion {
		return nil, 0, nil
	}
	var recs []Record
	good := int64(headerLen)
	frame := make([]byte, frameOverhead)
	for {
		if _, err := io.ReadFull(br, frame); err != nil {
			return recs, good, nil
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if n == 0 || n > maxRecord {
			return recs, good, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return recs, good, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, good, nil
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return recs, good, nil
		}
		recs = append(recs, r)
		good += int64(frameOverhead) + int64(n)
	}
}

// frameRecord encodes r as one wire frame.
func frameRecord(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecord {
		return nil, fmt.Errorf("journal: record too large (%d bytes)", len(payload))
	}
	buf := make([]byte, frameOverhead+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameOverhead:], payload)
	return buf, nil
}

// Append writes one record. The frame goes out in a single write(2),
// so a crash can tear at most the final record — never an earlier one.
func (j *Journal) Append(r Record) error {
	_, err := j.AppendDue(r)
	return err
}

// AppendDue is Append that also reports, under the same lock, whether a
// compaction is now due: the records appended since the last compaction
// have reached that compaction's size plus compactFloor. After Open the
// last compaction counts as empty, so a replayed log of compactFloor
// records or more compacts at the first append.
func (j *Journal) AppendDue(r Record) (compactDue bool, err error) {
	buf, err := frameRecord(r)
	if err != nil {
		return false, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return false, ErrClosed
	}
	if j.f == nil {
		// The last compaction replaced the file but could not reopen
		// it: append to the file at the path or fail, never to the
		// replaced inode.
		if j.f, err = openAppend(j.path); err != nil {
			return false, err
		}
	}
	if _, err := j.f.Write(buf); err != nil {
		return false, err
	}
	j.since++
	j.appended++
	return j.since >= j.written+compactFloor, nil
}

// Compact atomically replaces the log with the records produced by
// snapshot, which runs under the journal lock so no append can slip
// between the snapshot and the rewrite. The snapshot callback must
// not call back into the Journal.
func (j *Journal) Compact(snapshot func() []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	recs := snapshot()
	err := fsatomic.Write(j.path, func(w io.Writer) error {
		if _, err := w.Write(header()); err != nil {
			return err
		}
		for _, r := range recs {
			buf, err := frameRecord(r)
			if err != nil {
				return err
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.since, j.written = 0, len(recs)
	j.compactions++
	j.rewritten += uint64(len(recs))
	// The rename replaced the inode under the old handle, which must
	// never take another append; reopen for appending at the new end.
	// Should the reopen fail, the next Append retries it.
	if j.f != nil {
		j.f.Close()
	}
	j.f, err = openAppend(j.path)
	return err
}

// Since reports records appended since the last compaction (or Open).
func (j *Journal) Since() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.since
}

// Compacted reports the records the last compaction wrote (0 before the
// first one since Open) and the records all compactions have written.
func (j *Journal) Compacted() (last int, rewritten uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.written, j.rewritten
}

// Stats reports lifetime counters: records appended, compactions run,
// records recovered at Open, and whether Open cut a torn tail.
func (j *Journal) Stats() (appended, compactions uint64, replayed int, truncated bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended, j.compactions, j.replayed, j.truncated
}

// Close stops the journal; later Appends return ErrClosed. The server
// closes the journal before draining jobs on graceful shutdown, so
// drain-time cancellations are not recorded and a restarted daemon
// resumes the drained work.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
