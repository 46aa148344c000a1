// Package mem implements HORNET's multicore memory subsystem (paper
// §II-D2): private set-associative write-back L1 caches kept coherent
// either by an MSI directory protocol or by NUCA-style remote access to a
// distributed shared memory, with directory slices interleaved across
// tiles by line address, memory controllers at configurable nodes, and a
// bridge that converts protocol messages to network packets (and models
// the DMA that frees cores while transfers proceed).
package mem

import (
	"fmt"

	"hornet/internal/noc"
)

// Traffic classes used by memory packets (FlowID class bits).
const (
	ClassRequest  uint8 = 1 // cache -> directory / MC requests
	ClassResponse uint8 = 2 // data and acks back to caches
	ClassMemory   uint8 = 3 // directory <-> memory controller
)

// MsgType enumerates protocol messages.
type MsgType uint8

// Protocol message types: MSI requests and responses, memory-controller
// transactions, and NUCA remote accesses.
const (
	// MSI cache -> directory.
	MsgGetS MsgType = iota // read miss: want Shared
	MsgGetM                // write miss/upgrade: want Modified
	MsgPutM                // write-back of a Modified line (with data)
	// MSI directory -> cache.
	MsgInv     // invalidate a Shared copy
	MsgFwdGetS // owner must send data to requester and downgrade
	MsgFwdGetM // owner must send data to requester and invalidate
	// Responses.
	MsgInvAck // sharer -> requester: invalidation done
	MsgData   // data response (carries AckCount for GetM)
	MsgPutAck // directory -> evicting cache
	// Directory <-> memory controller.
	MsgMemRead  // fetch a line from off-chip memory
	MsgMemWrite // write a line back off-chip
	MsgMemData  // controller -> directory: line data
	// NUCA remote access (no caching of remote lines).
	MsgNucaRead  // remote load
	MsgNucaWrite // remote store (carries data)
	MsgNucaResp  // home -> requester: load data / store ack
)

func (t MsgType) String() string {
	names := [...]string{"GetS", "GetM", "PutM", "Inv", "FwdGetS", "FwdGetM",
		"InvAck", "Data", "PutAck", "MemRead", "MemWrite", "MemData",
		"NucaRead", "NucaWrite", "NucaResp"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is the protocol payload carried on a packet's head flit.
type Message struct {
	Type      MsgType
	Addr      uint32 // line-aligned address
	Data      []byte // line data when the message carries it
	Requester noc.NodeID
	// Txn is the requester's transaction number; responses echo it so
	// stale duplicates (e.g. both the owner and the directory answering a
	// forwarded request) can never satisfy a later transaction on the
	// same line.
	Txn uint64
	// AckCount, on a MsgData response to GetM, tells the requester how
	// many MsgInvAcks to collect before the write may proceed.
	AckCount int
	// Size/offset for NUCA sub-line accesses.
	Off uint8
	Len uint8

	free bool // in a free list: recycling it again would give it two owners
}

// msgPool is a tile's free list of protocol messages and their payload
// buffers, kept by the tile's bridge. Whichever of the tile's components
// takes a message off the network for good puts it there, and the tile's
// next sends are built from it. A list never crosses tiles: no locks. It
// is bounded because the protocol moves messages one way on balance
// (write-backs end at the controller's tile, acknowledgements at the
// requester's): a tile that mostly consumes drops the surplus, a tile that
// mostly produces allocates.
type msgPool struct{ free []*Message }

const msgPoolMax = 64

// get returns a message holding v, with v.Data copied into the message's
// own buffer: the caller's line stays the caller's.
func (p *msgPool) get(v Message) *Message {
	var m *Message
	if n := len(p.free); n > 0 {
		m, p.free = p.free[n-1], p.free[:n-1]
	} else {
		m = new(Message)
	}
	buf := m.Data[:0]
	*m = v
	m.Data = append(buf, v.Data...)
	return m
}

// put recycles a message nothing refers to any more.
func (p *msgPool) put(m *Message) {
	if m.free {
		panic(fmt.Sprintf("mem: %v message for %#x recycled twice", m.Type, m.Addr))
	}
	if len(p.free) < msgPoolMax {
		m.free = true
		p.free = append(p.free, m)
	}
}

// flitsFor returns the packet length for a message: one header flit plus
// one flit per 8 data bytes.
func flitsFor(m *Message) int {
	return 1 + (len(m.Data)+7)/8
}
