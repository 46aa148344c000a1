package mips

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"hornet/internal/noc"
	"hornet/internal/snapshot"
)

// This file implements checkpoint save/restore for the MIPS frontend:
// architectural core state (registers, PC, HI/LO, halt/exit, the
// in-flight data access, console output), the private RAM as a page
// delta against the loaded program image, and the network port's DMA
// send queue and receive FIFOs (whose packets carry []byte payloads
// through the snapshot payload codec). Loads validate the program-image
// fingerprint and core identity, returning *snapshot.MismatchError for
// state saved under a different program or placement.

// ImageFingerprint hashes a program image (entry point plus segment
// addresses and bytes) into the guard value checked on restore.
func ImageFingerprint(img *Image) uint32 {
	crc := crc32.NewIEEE()
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], img.Entry)
	crc.Write(b[:])
	for _, s := range img.Segments {
		binary.LittleEndian.PutUint32(b[:], s.Addr)
		crc.Write(b[:])
		crc.Write(s.Data)
	}
	return crc.Sum32()
}

// pageMatchesBaseline reports whether a materialized page is redundant:
// equal to the image's page, or all-zero where the image has none.
func (r *RAM) pageMatchesBaseline(key uint32, page []byte) bool {
	if b, ok := r.baseline[key]; ok {
		return bytes.Equal(page, b)
	}
	for _, v := range page {
		if v != 0 {
			return false
		}
	}
	return true
}

// SaveState serializes the RAM as a page delta against the loaded image.
func (r *RAM) SaveState(w *snapshot.Writer) {
	keys := make([]uint32, 0, len(r.pages))
	for k, p := range r.pages {
		if !r.pageMatchesBaseline(k, p) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Int(len(keys))
	for _, k := range keys {
		w.Uint32(k)
		w.Bytes(r.pages[k])
	}
}

// LoadState resets the RAM to the loaded image and applies the delta; the
// decoded text goes back to the image's and follows the delta's pages.
func (r *RAM) LoadState(rd *snapshot.Reader) error {
	n := rd.Count(1 << 20)
	r.pages = make(map[uint32][]byte, len(r.baseline)+n)
	r.lastPage = nil
	r.text, r.textOwned = r.imageText, false
	for k, p := range r.baseline {
		r.pages[k] = append([]byte(nil), p...)
	}
	for i := 0; i < n; i++ {
		k := rd.Uint32()
		page := rd.ByteSlice()
		if rd.Err() != nil {
			break
		}
		if len(page) != pageSize {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"RAM page %#x holds %d bytes, page size is %d", k, len(page), pageSize)}
		}
		r.pages[k] = page
		r.lastPage = nil
		r.redecode(k<<pageBits, pageSize)
	}
	return rd.Err()
}

// SaveState serializes the network port: the DMA send queue (packets
// with their payload buffers), the per-source receive FIFO, and the
// transfer counters.
func (np *NetPort) SaveState(w *snapshot.Writer) error {
	w.Int(len(np.sendQ))
	for _, p := range np.sendQ {
		if err := noc.EncodePacket(w, p); err != nil {
			return err
		}
	}
	w.Int(len(np.recvQ))
	for _, rp := range np.recvQ {
		w.Int32(int32(rp.src))
		w.Bytes(rp.data)
	}
	w.Uint64(np.Sent)
	w.Uint64(np.Received)
	return nil
}

// LoadState restores port state saved by SaveState.
func (np *NetPort) LoadState(r *snapshot.Reader) error {
	n := r.Count(1 << 20)
	np.sendQ = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		np.sendQ = append(np.sendQ, noc.DecodePacket(r))
	}
	n = r.Count(1 << 20)
	np.recvQ = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		np.recvQ = append(np.recvQ, recvPkt{src: noc.NodeID(r.Int32()), data: r.ByteSlice()})
	}
	np.Sent = r.Uint64()
	np.Received = r.Uint64()
	return r.Err()
}

// SaveState serializes the complete core: identity guards (node, core
// count, image fingerprint), architectural state, the stalled data
// access, console output, private RAM delta, and the network port.
func (c *Core) SaveState(w *snapshot.Writer) error {
	w.Int32(int32(c.ID))
	w.Int(c.NumCores)
	w.Uint32(c.imgFP)
	for _, v := range c.Regs {
		w.Uint32(v)
	}
	w.Uint32(c.HI)
	w.Uint32(c.LO)
	w.Uint32(c.PC)
	w.Bytes(c.console.Bytes())
	w.Bool(c.halted)
	w.Uint32(c.exit)
	w.Bool(c.memBusy)
	w.Bool(c.memWrite)
	w.Uint32(c.memAddr)
	w.Int(c.memSize)
	w.Uint64(c.memWdata)
	w.Uint8(c.memDest)
	w.Bool(c.memSigned)
	w.Uint64(c.Instret)
	w.Uint64(c.StallCycles)
	c.ram.SaveState(w)
	w.Bool(c.net != nil)
	if c.net != nil {
		if err := c.net.SaveState(w); err != nil {
			return err
		}
	}
	return nil
}

// LoadState restores core state saved by SaveState into this (freshly
// built, identically configured) core.
func (c *Core) LoadState(r *snapshot.Reader) error {
	id := noc.NodeID(r.Int32())
	numCores := r.Int()
	imgFP := r.Uint32()
	if err := r.Err(); err != nil {
		return err
	}
	if id != c.ID || numCores != c.NumCores {
		return &snapshot.MismatchError{Field: "mips core identity",
			Got:  fmt.Sprintf("core %d of %d", id, numCores),
			Want: fmt.Sprintf("core %d of %d", c.ID, c.NumCores)}
	}
	if imgFP != c.imgFP {
		return &snapshot.MismatchError{Field: "mips program image",
			Got: fmt.Sprintf("%08x", imgFP), Want: fmt.Sprintf("%08x", c.imgFP)}
	}
	for i := range c.Regs {
		c.Regs[i] = r.Uint32()
	}
	c.HI = r.Uint32()
	c.LO = r.Uint32()
	c.PC = r.Uint32()
	console := r.ByteSlice()
	c.console.Reset()
	c.console.Write(console)
	c.halted = r.Bool()
	c.exit = r.Uint32()
	c.memBusy = r.Bool()
	c.memWrite = r.Bool()
	c.memAddr = r.Uint32()
	c.memSize = r.Int()
	c.memWdata = r.Uint64()
	c.memDest = r.Uint8()
	c.memSigned = r.Bool()
	if c.memBusy {
		// The stalled access's fields feed fixed-width load/store
		// helpers and the register file on completion; reject values
		// they would panic on.
		switch c.memSize {
		case 1, 2, 4:
		default:
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"mips core %d in-flight access size %d is not 1/2/4", c.ID, c.memSize)}
		}
		if c.memAddr&uint32(c.memSize-1) != 0 {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"mips core %d in-flight access at %#x is not %d-byte aligned", c.ID, c.memAddr, c.memSize)}
		}
		if c.memDest >= uint8(len(c.Regs)) {
			return &snapshot.CorruptError{Detail: fmt.Sprintf(
				"mips core %d in-flight access targets register %d", c.ID, c.memDest)}
		}
	}
	if !c.halted && c.PC&3 != 0 {
		return &snapshot.CorruptError{Detail: fmt.Sprintf(
			"mips core %d PC %#x is not word-aligned", c.ID, c.PC)}
	}
	c.Instret = r.Uint64()
	c.StallCycles = r.Uint64()
	if err := c.ram.LoadState(r); err != nil {
		return err
	}
	hasNet := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasNet != (c.net != nil) {
		return &snapshot.MismatchError{Field: "mips network port",
			Got: fmt.Sprint(hasNet), Want: fmt.Sprint(c.net != nil)}
	}
	if c.net != nil {
		if err := c.net.LoadState(r); err != nil {
			return err
		}
	}
	return r.Err()
}
