package mips

import (
	"bytes"
	"fmt"

	"hornet/internal/noc"
	"hornet/internal/sim"
)

// DataMem is the core's data-memory interface. A local RAM completes in
// one cycle; mem.L1 (MSI) and mem.NucaPort satisfy it structurally and
// stall the core for miss latencies. The core calls Access every cycle
// with the same arguments until done is reported; the implementation
// starts the transaction on the first call and polls it on subsequent
// ones. Accesses must be size-aligned (so they never straddle a cache
// line).
type DataMem interface {
	Access(cycle uint64, write bool, addr uint32, size int, wdata uint64) (rdata uint64, done bool)
}

// LocalData adapts a private RAM to DataMem (MPI mode: no shared memory).
type LocalData struct{ RAM *RAM }

// Access implements DataMem with single-cycle completion.
func (l LocalData) Access(_ uint64, write bool, addr uint32, size int, wdata uint64) (uint64, bool) {
	if write {
		if err := l.RAM.Write(addr, size, uint32(wdata)); err != nil {
			panic(err)
		}
		return 0, true
	}
	v, err := l.RAM.Read(addr, size)
	if err != nil {
		panic(err)
	}
	return uint64(v), true
}

// Core is the single-cycle in-order MIPS core model. Instructions are
// fetched, already decoded, from the private image RAM (instruction
// traffic is not modeled, as in the paper's core); data accesses go
// through DataMem; network syscalls talk to the NetPort.
type Core struct {
	ID       noc.NodeID
	NumCores int

	Regs [32]uint32
	HI   uint32
	LO   uint32
	PC   uint32

	ram  *RAM // instruction memory (and console string source)
	data DataMem
	net  *NetPort

	console bytes.Buffer
	halted  bool
	exit    uint32

	// imgFP fingerprints the program image the core was built with; the
	// checkpoint loader refuses state saved under a different program.
	imgFP uint32

	// In-flight data access (core stalled on memory).
	memBusy   bool
	memWrite  bool
	memAddr   uint32
	memSize   int
	memWdata  uint64
	memDest   uint8
	memSigned bool

	Instret     uint64
	StallCycles uint64
}

// NewCore builds a core executing the given image.
func NewCore(id noc.NodeID, numCores int, img *Image, data DataMem, net *NetPort) *Core {
	ram := NewRAM()
	ram.LoadImage(img)
	c := &Core{ID: id, NumCores: numCores, ram: ram, data: data, net: net,
		PC: img.Entry, imgFP: ImageFingerprint(img)}
	if data == nil {
		c.data = LocalData{RAM: ram}
	}
	c.Regs[RegSP] = 0x7FFF_FFF0 // conventional stack top
	return c
}

// RAM exposes the private memory (tests, argument setup).
func (c *Core) RAM() *RAM { return c.ram }

// Net exposes the network port.
func (c *Core) Net() *NetPort { return c.net }

// Halted reports whether the program has exited.
func (c *Core) Halted() bool { return c.halted }

// ExitCode returns the value passed to the exit syscall.
func (c *Core) ExitCode() uint32 { return c.exit }

// Console returns everything printed so far.
func (c *Core) Console() string { return c.console.String() }

// NextEvent implements the fast-forward query: a running core acts every
// cycle; a halted one never again (its DMA queue may still drain, which
// the router's own NextEvent covers).
func (c *Core) NextEvent(now uint64) uint64 {
	if c.halted {
		return sim.NoEvent
	}
	return now + 1
}

// Tick executes at most one instruction (or continues a stalled one).
// Called once per cycle from the owning tile's transfer phase.
func (c *Core) Tick(cycle uint64) {
	if c.net != nil {
		c.net.Tick(cycle)
	}
	if c.halted {
		return
	}
	if c.memBusy {
		v, done := c.data.Access(cycle, c.memWrite, c.memAddr, c.memSize, c.memWdata)
		if !done {
			c.StallCycles++
			return
		}
		c.memBusy = false
		if !c.memWrite {
			c.writeLoad(v)
		}
		return
	}
	if in := c.ram.fetch(c.PC); in != nil {
		c.execute(in, cycle)
		return
	}
	// Outside the text: execute what the bytes there say (memory nobody
	// wrote holds zeros, sll $0,$0,0).
	raw, err := c.ram.Read(c.PC, 4)
	if err != nil {
		panic(fmt.Sprintf("mips: core %d: bad PC %#x: %v", c.ID, c.PC, err))
	}
	in := Decode(raw)
	c.execute(&in, cycle)
}

func (c *Core) writeLoad(v uint64) {
	val := uint32(v)
	if c.memSigned {
		switch c.memSize {
		case 1:
			val = uint32(int32(int8(val)))
		case 2:
			val = uint32(int32(int16(val)))
		}
	}
	c.setReg(c.memDest, val)
}

func (c *Core) setReg(r uint8, v uint32) {
	if r != 0 {
		c.Regs[r] = v
	}
}

// startAccess begins a data access; if it completes immediately the load
// result is written back in the same cycle (single-cycle core).
func (c *Core) startAccess(cycle uint64, write bool, addr uint32, size int, wdata uint64, dest uint8, signed bool) {
	c.memWrite, c.memAddr, c.memSize, c.memWdata = write, addr, size, wdata
	c.memDest, c.memSigned = dest, signed
	v, done := c.data.Access(cycle, write, addr, size, wdata)
	if !done {
		c.memBusy = true
		c.StallCycles++
		return
	}
	if !write {
		c.writeLoad(v)
	}
}

// execute runs one decoded instruction. Branch delay slots are not
// modeled (the assembler never schedules them), matching a simple
// single-cycle core.
func (c *Core) execute(in *Inst, cycle uint64) {
	next := c.PC + 4
	rs, rt := c.Regs[in.Rs], c.Regs[in.Rt]
	simm := uint32(in.SImm())
	switch in.Op {
	case opSpecial:
		switch in.Funct {
		case fnSLL:
			c.setReg(in.Rd, rt<<in.Shamt)
		case fnSRL:
			c.setReg(in.Rd, rt>>in.Shamt)
		case fnSRA:
			c.setReg(in.Rd, uint32(int32(rt)>>in.Shamt))
		case fnSLLV:
			c.setReg(in.Rd, rt<<(rs&31))
		case fnSRLV:
			c.setReg(in.Rd, rt>>(rs&31))
		case fnSRAV:
			c.setReg(in.Rd, uint32(int32(rt)>>(rs&31)))
		case fnJR:
			next = rs
		case fnJALR:
			c.setReg(in.Rd, c.PC+4)
			next = rs
		case fnSYSCALL:
			if !c.syscall(cycle) {
				return // blocked: retry the syscall next cycle
			}
		case fnMFHI:
			c.setReg(in.Rd, c.HI)
		case fnMTHI:
			c.HI = rs
		case fnMFLO:
			c.setReg(in.Rd, c.LO)
		case fnMTLO:
			c.LO = rs
		case fnMULT:
			p := int64(int32(rs)) * int64(int32(rt))
			c.LO, c.HI = uint32(p), uint32(p>>32)
		case fnMULTU:
			p := uint64(rs) * uint64(rt)
			c.LO, c.HI = uint32(p), uint32(p>>32)
		case fnDIV:
			if rt != 0 {
				c.LO = uint32(int32(rs) / int32(rt))
				c.HI = uint32(int32(rs) % int32(rt))
			}
		case fnDIVU:
			if rt != 0 {
				c.LO = rs / rt
				c.HI = rs % rt
			}
		case fnADD, fnADDU:
			c.setReg(in.Rd, rs+rt)
		case fnSUB, fnSUBU:
			c.setReg(in.Rd, rs-rt)
		case fnAND:
			c.setReg(in.Rd, rs&rt)
		case fnOR:
			c.setReg(in.Rd, rs|rt)
		case fnXOR:
			c.setReg(in.Rd, rs^rt)
		case fnNOR:
			c.setReg(in.Rd, ^(rs | rt))
		case fnSLT:
			c.setReg(in.Rd, b2u(int32(rs) < int32(rt)))
		case fnSLTU:
			c.setReg(in.Rd, b2u(rs < rt))
		default:
			panic(fmt.Sprintf("mips: core %d: unimplemented funct %#x at %#x", c.ID, in.Funct, c.PC))
		}
	case opRegImm:
		switch in.Rt {
		case rtBLTZ:
			if int32(rs) < 0 {
				next = c.PC + 4 + simm<<2
			}
		case rtBGEZ:
			if int32(rs) >= 0 {
				next = c.PC + 4 + simm<<2
			}
		default:
			panic(fmt.Sprintf("mips: core %d: unimplemented regimm rt=%d", c.ID, in.Rt))
		}
	case opJ:
		next = (c.PC+4)&0xF000_0000 | in.Target<<2
	case opJAL:
		c.setReg(RegRA, c.PC+4)
		next = (c.PC+4)&0xF000_0000 | in.Target<<2
	case opBEQ:
		if rs == rt {
			next = c.PC + 4 + simm<<2
		}
	case opBNE:
		if rs != rt {
			next = c.PC + 4 + simm<<2
		}
	case opBLEZ:
		if int32(rs) <= 0 {
			next = c.PC + 4 + simm<<2
		}
	case opBGTZ:
		if int32(rs) > 0 {
			next = c.PC + 4 + simm<<2
		}
	case opADDI, opADDIU:
		c.setReg(in.Rt, rs+simm)
	case opSLTI:
		c.setReg(in.Rt, b2u(int32(rs) < in.SImm()))
	case opSLTIU:
		c.setReg(in.Rt, b2u(rs < simm))
	case opANDI:
		c.setReg(in.Rt, rs&uint32(in.Imm))
	case opORI:
		c.setReg(in.Rt, rs|uint32(in.Imm))
	case opXORI:
		c.setReg(in.Rt, rs^uint32(in.Imm))
	case opLUI:
		c.setReg(in.Rt, uint32(in.Imm)<<16)
	case opLB:
		c.startAccess(cycle, false, rs+simm, 1, 0, in.Rt, true)
	case opLBU:
		c.startAccess(cycle, false, rs+simm, 1, 0, in.Rt, false)
	case opLH:
		c.startAccess(cycle, false, rs+simm, 2, 0, in.Rt, true)
	case opLHU:
		c.startAccess(cycle, false, rs+simm, 2, 0, in.Rt, false)
	case opLW:
		c.startAccess(cycle, false, rs+simm, 4, 0, in.Rt, false)
	case opSB:
		c.startAccess(cycle, true, rs+simm, 1, uint64(rt&0xFF), 0, false)
	case opSH:
		c.startAccess(cycle, true, rs+simm, 2, uint64(rt&0xFFFF), 0, false)
	case opSW:
		c.startAccess(cycle, true, rs+simm, 4, uint64(rt), 0, false)
	default:
		panic(fmt.Sprintf("mips: core %d: unimplemented opcode %#x at %#x", c.ID, in.Op, c.PC))
	}
	c.Instret++
	c.PC = next
}

// syscall executes the system call in $v0; it returns false when the call
// must block (the PC is not advanced, so it retries next cycle).
func (c *Core) syscall(cycle uint64) bool {
	a0, a1, a2 := c.Regs[RegA0], c.Regs[RegA1], c.Regs[RegA2]
	switch c.Regs[RegV0] {
	case SysPrintInt:
		fmt.Fprintf(&c.console, "%d", int32(a0))
	case SysPrintStr:
		for addr := a0; ; addr++ {
			b := c.ram.ByteAt(addr)
			if b == 0 {
				break
			}
			c.console.WriteByte(b)
		}
	case SysPrintChar:
		c.console.WriteByte(byte(a0))
	case SysExit:
		c.halted = true
		c.exit = a0
	case SysCycle:
		c.setReg(RegV0, uint32(cycle))
	case SysMyID:
		c.setReg(RegV0, uint32(c.ID))
	case SysNumCores:
		c.setReg(RegV0, uint32(c.NumCores))
	case SysNetSend:
		if c.net == nil {
			panic(fmt.Sprintf("mips: core %d: net_send without network port", c.ID))
		}
		if a2 > MaxSendBytes {
			panic(fmt.Sprintf("mips: core %d: net_send of %d bytes, at most %d", c.ID, a2, MaxSendBytes))
		}
		buf := c.ram.ReadBytes(a1, int(a2))
		if !c.net.TrySend(noc.NodeID(a0), buf) {
			c.StallCycles++
			return false // DMA queue full: block
		}
		c.setReg(RegV0, 0)
	case SysNetPoll:
		if src, ok := c.net.Poll(); ok {
			c.setReg(RegV0, uint32(src))
		} else {
			c.setReg(RegV0, ^uint32(0))
		}
	case SysNetRecv, SysNetRecvB:
		data, ok := c.net.Recv(noc.NodeID(int32(a0)))
		if !ok {
			if c.Regs[RegV0] == SysNetRecvB {
				c.StallCycles++
				return false // block until a packet arrives
			}
			c.setReg(RegV0, ^uint32(0))
			break
		}
		n := len(data)
		if n > int(a2) {
			n = int(a2)
		}
		c.ram.WriteBytes(a1, data[:n])
		c.setReg(RegV0, uint32(n))
	default:
		panic(fmt.Sprintf("mips: core %d: unknown syscall %d at %#x", c.ID, c.Regs[RegV0], c.PC))
	}
	return true
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
