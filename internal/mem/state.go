package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"hornet/internal/noc"
	"hornet/internal/snapshot"
)

// This file implements checkpoint save/restore for the coherent-memory
// fabric: protocol messages (as a registered snapshot payload codec, so
// the NoC layer can serialize them in flight), backing stores (delta-
// encoded against the preloaded image), L1 caches with their MSHR-like
// pending transaction, directory slices with parked and queued requests,
// memory controllers, NUCA ports, and the trace-mode controllers.
// Encodings walk maps by sorted key and slices in order, so identical
// simulator states serialize to identical bytes; loads validate
// structural parameters against the freshly built component and return
// *snapshot.MismatchError / *snapshot.CorruptError accordingly.

// The protocol-message payload codec: how in-flight coherence traffic
// crosses the snapshot boundary inside flit and packet encodings.
func init() {
	snapshot.RegisterPayloadCodec(snapshot.PayloadCodec{
		Name:   "mem.msg",
		Match:  func(v any) bool { _, ok := v.(*Message); return ok },
		Encode: func(w *snapshot.Writer, v any) { encodeMessage(w, v.(*Message)) },
		Decode: func(r *snapshot.Reader) any { return decodeMessage(r) },
	})
}

func encodeMessage(w *snapshot.Writer, m *Message) {
	w.Uint8(uint8(m.Type))
	w.Uint32(m.Addr)
	w.Bytes(m.Data)
	w.Int32(int32(m.Requester))
	w.Uint64(m.Txn)
	w.Int(m.AckCount)
	w.Uint8(m.Off)
	w.Uint8(m.Len)
}

func decodeMessage(r *snapshot.Reader) *Message {
	return &Message{
		Type:      MsgType(r.Uint8()),
		Addr:      r.Uint32(),
		Data:      r.ByteSlice(),
		Requester: noc.NodeID(r.Int32()),
		Txn:       r.Uint64(),
		AckCount:  r.Int(),
		Off:       r.Uint8(),
		Len:       r.Uint8(),
	}
}

// inbox encoding shared by L1, directory and memory controller.
func saveInbox(w *snapshot.Writer, inbox []inboundMsg) {
	w.Int(len(inbox))
	for _, im := range inbox {
		encodeMessage(w, im.m)
		w.Int32(int32(im.src))
		w.Uint64(im.availAt)
	}
}

func loadInbox(r *snapshot.Reader) []inboundMsg {
	n := r.Count(1 << 22)
	var inbox []inboundMsg
	for i := 0; i < n && r.Err() == nil; i++ {
		m := decodeMessage(r)
		inbox = append(inbox, inboundMsg{m: m, src: noc.NodeID(r.Int32()), availAt: r.Uint64()})
	}
	return inbox
}

func saveL1Stats(w *snapshot.Writer, s *L1Stats) {
	w.Uint64(s.Loads)
	w.Uint64(s.Stores)
	w.Uint64(s.Hits)
	w.Uint64(s.Misses)
	w.Uint64(s.Evictions)
	w.Uint64(s.WriteBacks)
	w.Uint64(s.Invalidations)
	w.Uint64(s.StallCycles)
}

func loadL1Stats(r *snapshot.Reader, s *L1Stats) {
	s.Loads = r.Uint64()
	s.Stores = r.Uint64()
	s.Hits = r.Uint64()
	s.Misses = r.Uint64()
	s.Evictions = r.Uint64()
	s.WriteBacks = r.Uint64()
	s.Invalidations = r.Uint64()
	s.StallCycles = r.Uint64()
}

// matchesBaseline reports whether a materialized line carries no
// information beyond the baseline: equal to its preloaded content, or
// all-zero where nothing was preloaded. Such lines are skipped by the
// delta encoding — reading an absent line yields the same bytes.
func (s *Store) matchesBaseline(base uint32, line []byte) bool {
	if b, ok := s.baseline[base]; ok {
		return bytes.Equal(line, b)
	}
	for _, v := range line {
		if v != 0 {
			return false
		}
	}
	return true
}

// baselineFingerprint hashes the preloaded image (sorted line address +
// content). Save embeds it; load compares it against the restoring
// store's own baseline, so a snapshot can never be applied on top of a
// different program/data image. The hash is memoized — the baseline is
// frozen once simulation starts, while autosaving daemons consult the
// fingerprint every few thousand cycles.
func (s *Store) baselineFingerprint() uint32 {
	if s.baseFPvalid {
		return s.baseFP
	}
	addrs := make([]uint32, 0, len(s.baseline))
	for a := range s.baseline {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	crc := crc32.NewIEEE()
	var ab [4]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint32(ab[:], a)
		crc.Write(ab[:])
		crc.Write(s.baseline[a])
	}
	s.baseFP = crc.Sum32()
	s.baseFPvalid = true
	return s.baseFP
}

// SaveState serializes the store as a delta against its preloaded
// baseline: line size and baseline fingerprint (structural guards), then
// the diverged lines in ascending address order.
func (s *Store) SaveState(w *snapshot.Writer) {
	w.Int(s.lineBytes)
	w.Uint32(s.baselineFingerprint())
	slots := make([]int, 0, len(s.lines))
	for slot, line := range s.lines {
		if !s.matchesBaseline(s.bases[slot], line) {
			slots = append(slots, slot)
		}
	}
	sort.Slice(slots, func(i, j int) bool { return s.bases[slots[i]] < s.bases[slots[j]] })
	w.Int(len(slots))
	for _, slot := range slots {
		w.Uint32(s.bases[slot])
		w.Bytes(s.lines[slot])
	}
}

// LoadState resets the store to its baseline and applies the saved
// delta. The restoring store must have been preloaded identically.
func (s *Store) LoadState(r *snapshot.Reader) error {
	lineBytes := r.Int()
	fp := r.Uint32()
	if err := r.Err(); err != nil {
		return err
	}
	if lineBytes != s.lineBytes {
		return &snapshot.MismatchError{Field: "store line bytes",
			Got: fmt.Sprint(lineBytes), Want: fmt.Sprint(s.lineBytes)}
	}
	if want := s.baselineFingerprint(); fp != want {
		return &snapshot.MismatchError{Field: "preloaded memory image",
			Got: fmt.Sprintf("%08x", fp), Want: fmt.Sprintf("%08x", want)}
	}
	n := r.Count(1 << 22)
	s.lines, s.bases, s.slab = nil, nil, nil
	s.reindex(64)
	for a, b := range s.baseline {
		s.WriteLine(a, b)
	}
	for i := 0; i < n; i++ {
		a := r.Uint32()
		line := r.ByteSlice()
		if r.Err() != nil {
			break
		}
		if len(line) != s.lineBytes {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"store line %#x holds %d bytes, line size is %d", a, len(line), s.lineBytes)}
		}
		s.WriteLine(a, line)
	}
	return r.Err()
}

// SaveState serializes the cache: geometry guards, every way's tag/state
// /data, the pending transaction, and the protocol inbox.
func (c *L1) SaveState(w *snapshot.Writer) {
	w.Int(c.sets)
	w.Int(c.ways)
	w.Uint64(c.lruTick)
	w.Uint64(c.txn)
	for i := range c.lines {
		l := &c.lines[i]
		w.Bool(l.valid)
		w.Uint8(l.state)
		w.Uint32(l.tag)
		w.Uint64(l.lru)
		if l.filled {
			w.Bytes(c.lineData(i))
		} else {
			w.Bytes(nil)
		}
	}
	w.Bool(c.busy)
	if p := &c.pend; c.busy {
		w.Uint64(p.txn)
		w.Bool(p.write)
		w.Uint32(p.addr)
		w.Int(p.size)
		w.Uint64(p.wdata)
		w.Uint64(p.readyAt)
		w.Bool(p.network)
		w.Int(p.needAck)
		w.Bool(p.haveData)
		w.Bytes(p.fill)
		w.Uint8(p.fillState)
		w.Bool(p.noInstall)
	}
	saveInbox(w, c.inbox)
	saveL1Stats(w, &c.Stats)
}

// LoadState restores cache state saved by SaveState.
func (c *L1) LoadState(r *snapshot.Reader) error {
	sets, ways := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if sets != c.sets || ways != c.ways {
		return &snapshot.MismatchError{Field: "L1 geometry",
			Got:  fmt.Sprintf("%dx%d", sets, ways),
			Want: fmt.Sprintf("%dx%d", c.sets, c.ways)}
	}
	c.lruTick = r.Uint64()
	c.txn = r.Uint64()
	for i := range c.lines {
		l := &c.lines[i]
		l.valid = r.Bool()
		l.state = r.Uint8()
		l.tag = r.Uint32()
		l.lru = r.Uint64()
		data := r.ByteSlice()
		// A way holds a whole line or, never filled, nothing; a valid
		// one is read with line-offset arithmetic, so any other length
		// must fail the restore with a structured error.
		l.filled = len(data) == c.am.LineBytes
		if l.filled {
			copy(c.lineData(i), data)
		} else if l.valid || len(data) != 0 {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"L1 way %d holds %d data bytes, line size is %d", i, len(data), c.am.LineBytes)}
		}
	}
	c.busy = r.Bool()
	c.pend = l1Pending{}
	if p := &c.pend; c.busy {
		p.txn = r.Uint64()
		p.write = r.Bool()
		p.addr = r.Uint32()
		p.size = r.Int()
		p.wdata = r.Uint64()
		p.readyAt = r.Uint64()
		p.network = r.Bool()
		p.needAck = r.Int()
		p.haveData = r.Bool()
		p.fill = append(c.fillBuf[:0], r.ByteSlice()...)
		p.fillState = r.Uint8()
		p.noInstall = r.Bool()
		if p.haveData && len(p.fill) != c.am.LineBytes {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"L1 pending fill holds %d bytes, line size is %d", len(p.fill), c.am.LineBytes)}
		}
		// The access size and alignment feed line-offset slicing on
		// completion; reject values that would panic there. A size-
		// aligned power-of-two access never straddles the line.
		switch p.size {
		case 1, 2, 4, 8:
		default:
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"L1 pending access size %d is not 1/2/4/8", p.size)}
		}
		if p.size > c.am.LineBytes || p.addr&uint32(p.size-1) != 0 {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"L1 pending access at %#x size %d straddles a %d-byte line", p.addr, p.size, c.am.LineBytes)}
		}
	}
	c.inbox = loadInbox(r)
	// Full-line data responses install as cache fills; a short one would
	// panic on completion rather than restore incorrectly.
	for _, im := range c.inbox {
		if im.m.Type == MsgData && len(im.m.Data) != c.am.LineBytes {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"L1 inbox data message holds %d bytes, line size is %d", len(im.m.Data), c.am.LineBytes)}
		}
	}
	loadL1Stats(r, &c.Stats)
	return r.Err()
}

// dirLineDefault reports whether a materialized directory entry carries
// no state beyond what first touch would materialize; such entries are
// skipped by the encoding (materialization itself is not semantic).
func dirLineDefault(l *dirLine) bool {
	return l.state == stInvalid && !l.cached && !l.busy && l.cur == nil &&
		l.owner == 0 && l.sharerCount() == 0 && len(l.waiting) == 0
}

// SaveState serializes the directory slice: backing store delta, the
// non-default line entries in ascending address order, inbox and
// counters.
func (d *Directory) SaveState(w *snapshot.Writer) {
	d.store.SaveState(w)
	slots := make([]int, 0, len(d.lines))
	for slot := range d.lines {
		if !dirLineDefault(&d.lines[slot]) {
			slots = append(slots, slot)
		}
	}
	bases := d.store.bases
	sort.Slice(slots, func(i, j int) bool { return bases[slots[i]] < bases[slots[j]] })
	w.Int(len(slots))
	for _, slot := range slots {
		l := &d.lines[slot]
		w.Uint32(bases[slot])
		w.Uint8(l.state)
		w.Int32(int32(l.owner))
		w.Bool(l.cached)
		w.Bool(l.busy)
		w.Int(l.sharerCount())
		l.eachSharer(func(s noc.NodeID) { w.Int32(int32(s)) })
		w.Bool(l.cur != nil)
		if l.cur != nil {
			encodeMessage(w, l.cur)
		}
		w.Int(len(l.waiting))
		for _, m := range l.waiting {
			encodeMessage(w, m)
		}
	}
	saveInbox(w, d.inbox)
	w.Uint64(d.Requests)
	w.Uint64(d.MemFetches)
	w.Uint64(d.MemWrites)
	w.Uint64(d.Forwards)
	w.Uint64(d.NucaOps)
}

// LoadState restores directory state saved by SaveState. Slots, the
// sharer bitsets and the index under them are rebuilt from the saved
// addresses and node lists.
func (d *Directory) LoadState(r *snapshot.Reader) error {
	if err := d.store.LoadState(r); err != nil {
		return err
	}
	n := r.Count(1 << 22)
	d.lines = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		a := r.Uint32()
		entry := dirLine{
			state:  r.Uint8(),
			owner:  noc.NodeID(r.Int32()),
			cached: r.Bool(),
			busy:   r.Bool(),
		}
		ns := r.Count(1 << 20)
		for j := 0; j < ns && r.Err() == nil; j++ {
			s := noc.NodeID(r.Int32())
			if s < 0 || int(s) >= d.am.Nodes {
				return &snapshot.CorruptError{Detail: fmt.Sprintf(
					"directory line %#x lists sharer %d of %d nodes", a, s, d.am.Nodes)}
			}
			entry.addSharer(s, d.am.Nodes)
		}
		if r.Bool() {
			entry.cur = decodeMessage(r)
		}
		nw := r.Count(1 << 20)
		for j := 0; j < nw && r.Err() == nil; j++ {
			entry.waiting = append(entry.waiting, decodeMessage(r))
		}
		l, _ := d.line(a)
		*l = entry
	}
	d.inbox = loadInbox(r)
	d.Requests = r.Uint64()
	d.MemFetches = r.Uint64()
	d.MemWrites = r.Uint64()
	d.Forwards = r.Uint64()
	d.NucaOps = r.Uint64()
	return r.Err()
}

// SaveState serializes the memory controller: inbox, in-service slots
// and counters (latency and queue depth are config-hash-guarded).
func (c *Controller) SaveState(w *snapshot.Writer) {
	saveInbox(w, c.inbox)
	w.Int(len(c.service))
	for _, s := range c.service {
		encodeMessage(w, s.m)
		w.Uint64(s.readyAt)
	}
	w.Uint64(c.Requests)
	w.Uint64(c.Reads)
	w.Uint64(c.Writes)
	w.Int(c.MaxQueued)
}

// LoadState restores controller state saved by SaveState.
func (c *Controller) LoadState(r *snapshot.Reader) error {
	c.inbox = loadInbox(r)
	n := r.Count(1 << 22)
	c.service = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		m := decodeMessage(r)
		c.service = append(c.service, serviceSlot{m: m, readyAt: r.Uint64()})
	}
	c.Requests = r.Uint64()
	c.Reads = r.Uint64()
	c.Writes = r.Uint64()
	c.MaxQueued = r.Int()
	return r.Err()
}

// SaveState serializes the NUCA port: the outstanding remote access and
// the access counters.
func (n *NucaPort) SaveState(w *snapshot.Writer) {
	w.Bool(n.busy)
	if p := &n.pend; n.busy {
		w.Bool(p.write)
		w.Uint32(p.addr)
		w.Int(p.size)
		w.Uint64(p.wdata)
		w.Bool(p.done)
		w.Uint64(p.rdata)
	}
	saveL1Stats(w, &n.Stats)
}

// LoadState restores NUCA port state saved by SaveState.
func (n *NucaPort) LoadState(r *snapshot.Reader) error {
	n.busy = r.Bool()
	n.pend = nucaPending{}
	if n.busy {
		n.pend = nucaPending{
			write: r.Bool(),
			addr:  r.Uint32(),
			size:  r.Int(),
			wdata: r.Uint64(),
			done:  r.Bool(),
			rdata: r.Uint64(),
		}
		switch n.pend.size {
		case 1, 2, 4, 8:
		default:
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"NUCA pending access size %d is not 1/2/4/8", n.pend.size)}
		}
	}
	loadL1Stats(r, &n.Stats)
	return r.Err()
}

// SaveState serializes the trace-mode controller: timing parameters as
// structural guards (they come from experiment code, outside the config
// hash), then the pending responses and the served counter.
func (tc *TraceController) SaveState(w *snapshot.Writer) {
	w.Uint64(tc.latency)
	w.Int(tc.responseFlits)
	w.Int(len(tc.pending))
	for _, p := range tc.pending {
		w.Int32(int32(p.requester))
		w.Uint64(p.readyAt)
	}
	w.Uint64(tc.Served)
}

// LoadState restores trace-controller state saved by SaveState.
func (tc *TraceController) LoadState(r *snapshot.Reader) error {
	latency := r.Uint64()
	respFlits := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if latency != tc.latency || respFlits != tc.responseFlits {
		return &snapshot.MismatchError{Field: "trace controller parameters",
			Got:  fmt.Sprintf("latency=%d flits=%d", latency, respFlits),
			Want: fmt.Sprintf("latency=%d flits=%d", tc.latency, tc.responseFlits)}
	}
	n := r.Count(1 << 22)
	tc.pending = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		tc.pending = append(tc.pending, tracePending{
			requester: noc.NodeID(r.Int32()),
			readyAt:   r.Uint64(),
		})
	}
	tc.Served = r.Uint64()
	return r.Err()
}
