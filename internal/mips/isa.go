// Package mips implements HORNET's built-in processor frontend (paper
// §II-D2): a single-cycle in-order MIPS32-subset core with either private
// local memory plus the MPI-style network syscall interface (send / poll
// / receive with DMA semantics), or a memory hierarchy port (L1+MSI or
// NUCA) for shared-memory execution; an assembler substitutes for the
// paper's GCC cross-compiler so workloads like Cannon's algorithm can be
// written as MIPS source without an external toolchain. The assembler is
// two tables and two passes: one table gives each machine mnemonic its
// operand form and opcode, the other rewrites each pseudo-instruction
// into machine instructions; pass 1 expands pseudo-instructions and lays
// out labels, pass 2 encodes.
package mips

import "fmt"

// Register names, by architectural number.
var regNames = [32]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// Conventional register numbers used by the core and assembler.
const (
	RegZero = 0
	RegAT   = 1
	RegV0   = 2
	RegV1   = 3
	RegA0   = 4
	RegA1   = 5
	RegA2   = 6
	RegA3   = 7
	RegSP   = 29
	RegRA   = 31
)

// Opcode values (instruction bits 31..26).
const (
	opSpecial = 0x00
	opRegImm  = 0x01
	opJ       = 0x02
	opJAL     = 0x03
	opBEQ     = 0x04
	opBNE     = 0x05
	opBLEZ    = 0x06
	opBGTZ    = 0x07
	opADDI    = 0x08
	opADDIU   = 0x09
	opSLTI    = 0x0A
	opSLTIU   = 0x0B
	opANDI    = 0x0C
	opORI     = 0x0D
	opXORI    = 0x0E
	opLUI     = 0x0F
	opLB      = 0x20
	opLH      = 0x21
	opLW      = 0x23
	opLBU     = 0x24
	opLHU     = 0x25
	opSB      = 0x28
	opSH      = 0x29
	opSW      = 0x2B
)

// SPECIAL function values (instruction bits 5..0 when opcode == 0).
const (
	fnSLL     = 0x00
	fnSRL     = 0x02
	fnSRA     = 0x03
	fnSLLV    = 0x04
	fnSRLV    = 0x06
	fnSRAV    = 0x07
	fnJR      = 0x08
	fnJALR    = 0x09
	fnSYSCALL = 0x0C
	fnMFHI    = 0x10
	fnMTHI    = 0x11
	fnMFLO    = 0x12
	fnMTLO    = 0x13
	fnMULT    = 0x18
	fnMULTU   = 0x19
	fnDIV     = 0x1A
	fnDIVU    = 0x1B
	fnADD     = 0x20
	fnADDU    = 0x21
	fnSUB     = 0x22
	fnSUBU    = 0x23
	fnAND     = 0x24
	fnOR      = 0x25
	fnXOR     = 0x26
	fnNOR     = 0x27
	fnSLT     = 0x2A
	fnSLTU    = 0x2B
)

// REGIMM rt values.
const (
	rtBLTZ = 0x00
	rtBGEZ = 0x01
)

// Inst is a decoded instruction.
type Inst struct {
	Raw    uint32
	Op     uint8
	Rs     uint8
	Rt     uint8
	Rd     uint8
	Shamt  uint8
	Funct  uint8
	Imm    uint16 // raw immediate (sign/zero extension is per-op)
	Target uint32 // 26-bit jump target field
}

// Decode splits a raw instruction word into fields.
func Decode(raw uint32) Inst {
	return Inst{
		Raw:    raw,
		Op:     uint8(raw >> 26),
		Rs:     uint8(raw >> 21 & 0x1F),
		Rt:     uint8(raw >> 16 & 0x1F),
		Rd:     uint8(raw >> 11 & 0x1F),
		Shamt:  uint8(raw >> 6 & 0x1F),
		Funct:  uint8(raw & 0x3F),
		Imm:    uint16(raw & 0xFFFF),
		Target: raw & 0x03FF_FFFF,
	}
}

// SImm returns the sign-extended immediate.
func (i Inst) SImm() int32 { return int32(int16(i.Imm)) }

// EncodeR builds an R-type instruction word.
func EncodeR(funct, rs, rt, rd, shamt uint8) uint32 {
	return uint32(rs&0x1F)<<21 | uint32(rt&0x1F)<<16 | uint32(rd&0x1F)<<11 |
		uint32(shamt&0x1F)<<6 | uint32(funct&0x3F)
}

// EncodeI builds an I-type instruction word.
func EncodeI(op, rs, rt uint8, imm uint16) uint32 {
	return uint32(op&0x3F)<<26 | uint32(rs&0x1F)<<21 | uint32(rt&0x1F)<<16 | uint32(imm)
}

// EncodeJ builds a J-type instruction word.
func EncodeJ(op uint8, target uint32) uint32 {
	return uint32(op&0x3F)<<26 | target&0x03FF_FFFF
}

// RegNumber parses a register reference: "$t0", "$8", or "t0". Bare
// numbers without the dollar sign are rejected so immediates cannot be
// silently misread as register numbers.
func RegNumber(s string) (uint8, error) {
	dollar := len(s) > 0 && s[0] == '$'
	if dollar {
		s = s[1:]
	}
	if s == "" {
		return 0, fmt.Errorf("mips: empty register name")
	}
	if s[0] >= '0' && s[0] <= '9' {
		if !dollar {
			return 0, fmt.Errorf("mips: numeric register %q needs a $ prefix", s)
		}
		n := 0
		for _, c := range s {
			if c < '0' || c > '9' {
				return 0, fmt.Errorf("mips: bad register %q", s)
			}
			n = n*10 + int(c-'0')
		}
		if n > 31 {
			return 0, fmt.Errorf("mips: register number %d out of range", n)
		}
		return uint8(n), nil
	}
	for i, n := range regNames {
		if n == s {
			return uint8(i), nil
		}
	}
	return 0, fmt.Errorf("mips: unknown register %q", s)
}

// Syscall numbers (in $v0 at the syscall instruction), following the
// SPIM convention for console I/O plus HORNET's network interface.
const (
	SysPrintInt  = 1
	SysPrintStr  = 4
	SysExit      = 10
	SysPrintChar = 11
	SysCycle     = 30 // $v0 = low 32 bits of the current cycle
	SysNetSend   = 60 // a0=dst node, a1=buf, a2=len bytes; DMA, non-blocking unless queue full
	SysNetPoll   = 61 // v0 = source node of a waiting packet, or -1
	SysNetRecv   = 62 // a0=src node, a1=buf, a2=max len; v0 = len or -1 (non-blocking)
	SysNetRecvB  = 63 // as SysNetRecv but blocks until a packet arrives
	SysMyID      = 64 // v0 = this core's node ID
	SysNumCores  = 65 // v0 = total node count
)
