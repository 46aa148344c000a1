package mips

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Default section base addresses (SPIM conventions).
const (
	TextBase = 0x0040_0000
	DataBase = 0x1001_0000
)

// Segment is a contiguous chunk of the assembled image.
type Segment struct {
	Addr uint32
	Data []byte
}

// Image is the assembler output: loadable segments, the entry point
// (label "main" if present, else the first text address) and the symbol
// table (tests and argument patching). It must not change once a core has
// been built from it: the cores share its decoded text.
type Image struct {
	Segments []Segment
	Entry    uint32
	Symbols  map[string]uint32

	decode   sync.Once
	text     []Inst // the word-aligned segment holding Entry, decoded once
	textBase uint32
}

func (img *Image) decodedText() (base uint32, text []Inst) {
	img.decode.Do(func() {
		for _, s := range img.Segments {
			if s.Addr&3 != 0 || img.Entry-s.Addr >= uint32(len(s.Data)) {
				continue
			}
			img.textBase, img.text = s.Addr, make([]Inst, len(s.Data)/4)
			for i := range img.text {
				img.text[i] = Decode(binary.LittleEndian.Uint32(s.Data[4*i:]))
			}
			return
		}
	})
	return img.textBase, img.text
}

// Assemble translates MIPS assembly source into an Image. Supported
// syntax: labels ("name:"), directives (.text, .data, .word, .half,
// .byte, .asciiz, .ascii, .space, .align, .globl), the MIPS32 integer
// subset the core executes, and the common pseudo-instructions (li, la,
// move, nop, b, beqz, bnez, blt/bgt/ble/bge, mul, neg, not). Comments
// start with '#'. Branch targets are labels; loads/stores use the
// offset(register) form.
func Assemble(src string) (*Image, error) {
	a := &assembler{
		symbols: make(map[string]uint32),
	}
	if err := a.run(src); err != nil {
		return nil, err
	}
	img := &Image{Symbols: a.symbols}
	if len(a.text) > 0 {
		img.Segments = append(img.Segments, Segment{Addr: TextBase, Data: a.text})
	}
	if len(a.data) > 0 {
		img.Segments = append(img.Segments, Segment{Addr: DataBase, Data: a.data})
	}
	img.Entry = TextBase
	if m, ok := a.symbols["main"]; ok {
		img.Entry = m
	}
	return img, nil
}

type stmt struct {
	line   int
	mnem   string
	args   []string
	addr   uint32
	inText bool
}

type assembler struct {
	symbols map[string]uint32
	text    []byte
	data    []byte
	stmts   []stmt
}

func (a *assembler) run(src string) error {
	if err := a.pass1(src); err != nil {
		return err
	}
	return a.pass2()
}

// pass1 tokenizes, expands sizes, assigns addresses and collects labels.
func (a *assembler) pass1(src string) error {
	inText := true
	textPC := uint32(TextBase)
	dataPC := uint32(DataBase)
	pc := func() *uint32 {
		if inText {
			return &textPC
		}
		return &dataPC
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		// Peel off any labels.
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !validLabel(label) {
				break // a ':' inside an operand (none in our syntax, but be safe)
			}
			if _, dup := a.symbols[label]; dup {
				return fmt.Errorf("asm: line %d: duplicate label %q", lineNo+1, label)
			}
			a.symbols[label] = *pc()
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		mnem, rest := splitMnem(line)
		args := splitArgs(rest)
		s := stmt{line: lineNo + 1, mnem: mnem, args: args, inText: inText}
		switch mnem {
		case ".text":
			inText = true
			continue
		case ".data":
			inText = false
			continue
		case ".globl", ".global", ".ent", ".end":
			continue // accepted and ignored
		case ".align":
			n, err := parseInt(args, 0, s.line)
			if err != nil {
				return err
			}
			align := uint32(1) << uint(n)
			*pc() = (*pc() + align - 1) &^ (align - 1)
			base := uint32(TextBase)
			if !inText {
				base = DataBase
			}
			a.padTo(inText, *pc()-base)
			continue
		case ".word", ".half", ".byte", ".space", ".asciiz", ".ascii":
			s.addr = *pc()
			size, err := a.dataSize(&s)
			if err != nil {
				return err
			}
			*pc() += uint32(size)
			a.stmts = append(a.stmts, s)
			continue
		}
		if !inText {
			return fmt.Errorf("asm: line %d: instruction %q in .data section", s.line, mnem)
		}
		words, err := instWords(mnem, args, s.line)
		if err != nil {
			return err
		}
		s.addr = *pc()
		*pc() += uint32(4 * words)
		a.stmts = append(a.stmts, s)
	}
	return nil
}

// padTo grows a section buffer to at least size bytes (section-relative).
func (a *assembler) padTo(inText bool, size uint32) {
	if inText {
		for uint32(len(a.text)) < size {
			a.text = append(a.text, 0)
		}
	} else {
		for uint32(len(a.data)) < size {
			a.data = append(a.data, 0)
		}
	}
}

// dataSize computes a data directive's byte size (pass 1).
func (a *assembler) dataSize(s *stmt) (int, error) {
	switch s.mnem {
	case ".word":
		return 4 * len(s.args), nil
	case ".half":
		return 2 * len(s.args), nil
	case ".byte":
		return len(s.args), nil
	case ".space":
		n, err := parseInt(s.args, 0, s.line)
		if err != nil {
			return 0, err
		}
		return int(n), nil
	case ".asciiz", ".ascii":
		str, err := parseString(s.args, s.line)
		if err != nil {
			return 0, err
		}
		if s.mnem == ".asciiz" {
			return len(str) + 1, nil
		}
		return len(str), nil
	}
	return 0, fmt.Errorf("asm: line %d: unknown directive %q", s.line, s.mnem)
}

// instWords returns how many machine words a (possibly pseudo)
// instruction expands to.
func instWords(mnem string, args []string, line int) (int, error) {
	switch mnem {
	case "mul":
		// mul rd, rs, rt is two words; mul rd, rs, imm loads the
		// immediate through $at first (four words).
		if len(args) == 3 && isIntLiteral(args[2]) {
			return 4, nil
		}
		return 2, nil
	case "li", "la", "blt", "bgt", "ble", "bge":
		return 2, nil
	case "nop", "move", "b", "beqz", "bnez", "neg", "not", "syscall",
		"add", "addu", "sub", "subu", "and", "or", "xor", "nor", "slt", "sltu",
		"sllv", "srlv", "srav", "sll", "srl", "sra",
		"addi", "addiu", "slti", "sltiu", "andi", "ori", "xori", "lui",
		"lb", "lbu", "lh", "lhu", "lw", "sb", "sh", "sw",
		"beq", "bne", "blez", "bgtz", "bltz", "bgez",
		"j", "jal", "jr", "jalr",
		"mult", "multu", "div", "divu", "mfhi", "mflo", "mthi", "mtlo":
		return 1, nil
	}
	return 0, fmt.Errorf("asm: line %d: unknown mnemonic %q", line, mnem)
}

// pass2 encodes every statement.
func (a *assembler) pass2() error {
	for _, s := range a.stmts {
		if strings.HasPrefix(s.mnem, ".") {
			if err := a.emitData(&s); err != nil {
				return err
			}
			continue
		}
		words, err := a.encode(&s)
		if err != nil {
			return err
		}
		off := s.addr - TextBase
		a.padTo(true, off+uint32(4*len(words)))
		for i, w := range words {
			binary.LittleEndian.PutUint32(a.text[off+uint32(4*i):], w)
		}
	}
	return nil
}

func (a *assembler) emitData(s *stmt) error {
	off := s.addr - DataBase
	emit := func(b []byte) {
		a.padTo(false, off+uint32(len(b)))
		copy(a.data[off:], b)
	}
	switch s.mnem {
	case ".word":
		buf := make([]byte, 4*len(s.args))
		for i, arg := range s.args {
			v, err := a.value(arg, s.line)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(buf[4*i:], v)
		}
		emit(buf)
	case ".half":
		buf := make([]byte, 2*len(s.args))
		for i, arg := range s.args {
			v, err := a.value(arg, s.line)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint16(buf[2*i:], uint16(v))
		}
		emit(buf)
	case ".byte":
		buf := make([]byte, len(s.args))
		for i, arg := range s.args {
			v, err := a.value(arg, s.line)
			if err != nil {
				return err
			}
			buf[i] = byte(v)
		}
		emit(buf)
	case ".space":
		n, err := parseInt(s.args, 0, s.line)
		if err != nil {
			return err
		}
		emit(make([]byte, n))
	case ".asciiz", ".ascii":
		str, err := parseString(s.args, s.line)
		if err != nil {
			return err
		}
		b := []byte(str)
		if s.mnem == ".asciiz" {
			b = append(b, 0)
		}
		emit(b)
	}
	return nil
}

// value resolves an integer literal or label to its value/address.
func (a *assembler) value(arg string, line int) (uint32, error) {
	if v, ok := a.symbols[arg]; ok {
		return v, nil
	}
	n, err := strconv.ParseInt(arg, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("asm: line %d: bad value %q", line, arg)
	}
	return uint32(int64(n)), nil
}

func (a *assembler) reg(arg string, line int) (uint8, error) {
	r, err := RegNumber(arg)
	if err != nil {
		return 0, fmt.Errorf("asm: line %d: %v", line, err)
	}
	return r, nil
}

// branchOff computes the PC-relative branch offset (in words) from the
// instruction at addr to a label.
func (a *assembler) branchOff(label string, addr uint32, line int) (uint16, error) {
	target, ok := a.symbols[label]
	if !ok {
		return 0, fmt.Errorf("asm: line %d: undefined label %q", line, label)
	}
	diff := int64(target) - int64(addr+4)
	if diff&3 != 0 {
		return 0, fmt.Errorf("asm: line %d: misaligned branch target %q", line, label)
	}
	words := diff >> 2
	if words < -(1<<15) || words >= 1<<15 {
		return 0, fmt.Errorf("asm: line %d: branch to %q out of range", line, label)
	}
	return uint16(words), nil
}

func (a *assembler) need(s *stmt, n int) error {
	if len(s.args) != n {
		return fmt.Errorf("asm: line %d: %s wants %d operands, got %d", s.line, s.mnem, n, len(s.args))
	}
	return nil
}

// encode translates one statement into machine words.
func (a *assembler) encode(s *stmt) ([]uint32, error) {
	switch s.mnem {
	case "nop":
		return []uint32{0}, nil
	case "syscall":
		return []uint32{EncodeR(fnSYSCALL, 0, 0, 0, 0)}, nil

	// Three-register ALU ops: op rd, rs, rt.
	case "add", "addu", "sub", "subu", "and", "or", "xor", "nor", "slt", "sltu":
		if err := a.need(s, 3); err != nil {
			return nil, err
		}
		fns := map[string]uint8{"add": fnADD, "addu": fnADDU, "sub": fnSUB, "subu": fnSUBU,
			"and": fnAND, "or": fnOR, "xor": fnXOR, "nor": fnNOR, "slt": fnSLT, "sltu": fnSLTU}
		rd, e1 := a.reg(s.args[0], s.line)
		rs, e2 := a.reg(s.args[1], s.line)
		rt, e3 := a.reg(s.args[2], s.line)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		return []uint32{EncodeR(fns[s.mnem], rs, rt, rd, 0)}, nil

	// Variable shifts: op rd, rt, rs.
	case "sllv", "srlv", "srav":
		if err := a.need(s, 3); err != nil {
			return nil, err
		}
		fns := map[string]uint8{"sllv": fnSLLV, "srlv": fnSRLV, "srav": fnSRAV}
		rd, e1 := a.reg(s.args[0], s.line)
		rt, e2 := a.reg(s.args[1], s.line)
		rs, e3 := a.reg(s.args[2], s.line)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		return []uint32{EncodeR(fns[s.mnem], rs, rt, rd, 0)}, nil

	// Immediate shifts: op rd, rt, shamt.
	case "sll", "srl", "sra":
		if err := a.need(s, 3); err != nil {
			return nil, err
		}
		fns := map[string]uint8{"sll": fnSLL, "srl": fnSRL, "sra": fnSRA}
		rd, e1 := a.reg(s.args[0], s.line)
		rt, e2 := a.reg(s.args[1], s.line)
		sh, e3 := a.value(s.args[2], s.line)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		return []uint32{EncodeR(fns[s.mnem], 0, rt, rd, uint8(sh))}, nil

	// Immediate ALU ops: op rt, rs, imm.
	case "addi", "addiu", "slti", "sltiu", "andi", "ori", "xori":
		if err := a.need(s, 3); err != nil {
			return nil, err
		}
		ops := map[string]uint8{"addi": opADDI, "addiu": opADDIU, "slti": opSLTI,
			"sltiu": opSLTIU, "andi": opANDI, "ori": opORI, "xori": opXORI}
		rt, e1 := a.reg(s.args[0], s.line)
		rs, e2 := a.reg(s.args[1], s.line)
		imm, e3 := a.value(s.args[2], s.line)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		return []uint32{EncodeI(ops[s.mnem], rs, rt, uint16(imm))}, nil

	case "lui":
		if err := a.need(s, 2); err != nil {
			return nil, err
		}
		rt, e1 := a.reg(s.args[0], s.line)
		imm, e2 := a.value(s.args[1], s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return []uint32{EncodeI(opLUI, 0, rt, uint16(imm))}, nil

	// Loads and stores: op rt, off(rs).
	case "lb", "lbu", "lh", "lhu", "lw", "sb", "sh", "sw":
		if err := a.need(s, 2); err != nil {
			return nil, err
		}
		ops := map[string]uint8{"lb": opLB, "lbu": opLBU, "lh": opLH, "lhu": opLHU,
			"lw": opLW, "sb": opSB, "sh": opSH, "sw": opSW}
		rt, e1 := a.reg(s.args[0], s.line)
		off, base, e2 := a.memOperand(s.args[1], s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return []uint32{EncodeI(ops[s.mnem], base, rt, off)}, nil

	// Branches.
	case "beq", "bne":
		if err := a.need(s, 3); err != nil {
			return nil, err
		}
		op := opBEQ
		if s.mnem == "bne" {
			op = opBNE
		}
		rs, e1 := a.reg(s.args[0], s.line)
		rt, e2 := a.reg(s.args[1], s.line)
		off, e3 := a.branchOff(s.args[2], s.addr, s.line)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		return []uint32{EncodeI(uint8(op), rs, rt, off)}, nil
	case "blez", "bgtz":
		if err := a.need(s, 2); err != nil {
			return nil, err
		}
		op := opBLEZ
		if s.mnem == "bgtz" {
			op = opBGTZ
		}
		rs, e1 := a.reg(s.args[0], s.line)
		off, e2 := a.branchOff(s.args[1], s.addr, s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return []uint32{EncodeI(uint8(op), rs, 0, off)}, nil
	case "bltz", "bgez":
		if err := a.need(s, 2); err != nil {
			return nil, err
		}
		rt := uint8(rtBLTZ)
		if s.mnem == "bgez" {
			rt = rtBGEZ
		}
		rs, e1 := a.reg(s.args[0], s.line)
		off, e2 := a.branchOff(s.args[1], s.addr, s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return []uint32{EncodeI(opRegImm, rs, rt, off)}, nil

	// Jumps.
	case "j", "jal":
		if err := a.need(s, 1); err != nil {
			return nil, err
		}
		target, ok := a.symbols[s.args[0]]
		if !ok {
			return nil, fmt.Errorf("asm: line %d: undefined label %q", s.line, s.args[0])
		}
		op := uint8(opJ)
		if s.mnem == "jal" {
			op = opJAL
		}
		return []uint32{EncodeJ(op, target>>2)}, nil
	case "jr":
		if err := a.need(s, 1); err != nil {
			return nil, err
		}
		rs, err := a.reg(s.args[0], s.line)
		if err != nil {
			return nil, err
		}
		return []uint32{EncodeR(fnJR, rs, 0, 0, 0)}, nil
	case "jalr":
		rs, err := a.reg(s.args[len(s.args)-1], s.line)
		if err != nil {
			return nil, err
		}
		rd := uint8(RegRA)
		if len(s.args) == 2 {
			if rd, err = a.reg(s.args[0], s.line); err != nil {
				return nil, err
			}
		}
		return []uint32{EncodeR(fnJALR, rs, 0, rd, 0)}, nil

	// HI/LO unit.
	case "mult", "multu", "div", "divu":
		if err := a.need(s, 2); err != nil {
			return nil, err
		}
		fns := map[string]uint8{"mult": fnMULT, "multu": fnMULTU, "div": fnDIV, "divu": fnDIVU}
		rs, e1 := a.reg(s.args[0], s.line)
		rt, e2 := a.reg(s.args[1], s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return []uint32{EncodeR(fns[s.mnem], rs, rt, 0, 0)}, nil
	case "mfhi", "mflo":
		if err := a.need(s, 1); err != nil {
			return nil, err
		}
		fn := uint8(fnMFHI)
		if s.mnem == "mflo" {
			fn = fnMFLO
		}
		rd, err := a.reg(s.args[0], s.line)
		if err != nil {
			return nil, err
		}
		return []uint32{EncodeR(fn, 0, 0, rd, 0)}, nil
	case "mthi", "mtlo":
		if err := a.need(s, 1); err != nil {
			return nil, err
		}
		fn := uint8(fnMTHI)
		if s.mnem == "mtlo" {
			fn = fnMTLO
		}
		rs, err := a.reg(s.args[0], s.line)
		if err != nil {
			return nil, err
		}
		return []uint32{EncodeR(fn, rs, 0, 0, 0)}, nil

	// Pseudo-instructions.
	case "li", "la":
		if err := a.need(s, 2); err != nil {
			return nil, err
		}
		rt, e1 := a.reg(s.args[0], s.line)
		v, e2 := a.value(s.args[1], s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return []uint32{
			EncodeI(opLUI, 0, RegAT, uint16(v>>16)),
			EncodeI(opORI, RegAT, rt, uint16(v)),
		}, nil
	case "move":
		if err := a.need(s, 2); err != nil {
			return nil, err
		}
		rd, e1 := a.reg(s.args[0], s.line)
		rs, e2 := a.reg(s.args[1], s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return []uint32{EncodeR(fnADDU, rs, 0, rd, 0)}, nil
	case "neg":
		if err := a.need(s, 2); err != nil {
			return nil, err
		}
		rd, e1 := a.reg(s.args[0], s.line)
		rs, e2 := a.reg(s.args[1], s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return []uint32{EncodeR(fnSUB, 0, rs, rd, 0)}, nil
	case "not":
		if err := a.need(s, 2); err != nil {
			return nil, err
		}
		rd, e1 := a.reg(s.args[0], s.line)
		rs, e2 := a.reg(s.args[1], s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return []uint32{EncodeR(fnNOR, rs, 0, rd, 0)}, nil
	case "b":
		if err := a.need(s, 1); err != nil {
			return nil, err
		}
		off, err := a.branchOff(s.args[0], s.addr, s.line)
		if err != nil {
			return nil, err
		}
		return []uint32{EncodeI(opBEQ, 0, 0, off)}, nil
	case "beqz", "bnez":
		if err := a.need(s, 2); err != nil {
			return nil, err
		}
		op := uint8(opBEQ)
		if s.mnem == "bnez" {
			op = opBNE
		}
		rs, e1 := a.reg(s.args[0], s.line)
		off, e2 := a.branchOff(s.args[1], s.addr, s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return []uint32{EncodeI(op, rs, 0, off)}, nil
	case "blt", "bgt", "ble", "bge":
		if err := a.need(s, 3); err != nil {
			return nil, err
		}
		r1, e1 := a.reg(s.args[0], s.line)
		r2, e2 := a.reg(s.args[1], s.line)
		// The slt occupies the first word; the branch is at addr+4.
		off, e3 := a.branchOff(s.args[2], s.addr+4, s.line)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		var slt uint32
		var br uint32
		switch s.mnem {
		case "blt": // rs < rt
			slt = EncodeR(fnSLT, r1, r2, RegAT, 0)
			br = EncodeI(opBNE, RegAT, 0, off)
		case "bge": // rs >= rt
			slt = EncodeR(fnSLT, r1, r2, RegAT, 0)
			br = EncodeI(opBEQ, RegAT, 0, off)
		case "bgt": // rs > rt  <=>  rt < rs
			slt = EncodeR(fnSLT, r2, r1, RegAT, 0)
			br = EncodeI(opBNE, RegAT, 0, off)
		case "ble": // rs <= rt  <=>  !(rt < rs)
			slt = EncodeR(fnSLT, r2, r1, RegAT, 0)
			br = EncodeI(opBEQ, RegAT, 0, off)
		}
		return []uint32{slt, br}, nil
	case "mul":
		if err := a.need(s, 3); err != nil {
			return nil, err
		}
		rd, e1 := a.reg(s.args[0], s.line)
		rs, e2 := a.reg(s.args[1], s.line)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		if isIntLiteral(s.args[2]) {
			v, err := a.value(s.args[2], s.line)
			if err != nil {
				return nil, err
			}
			return []uint32{
				EncodeI(opLUI, 0, RegAT, uint16(v>>16)),
				EncodeI(opORI, RegAT, RegAT, uint16(v)),
				EncodeR(fnMULT, rs, RegAT, 0, 0),
				EncodeR(fnMFLO, 0, 0, rd, 0),
			}, nil
		}
		rt, err := a.reg(s.args[2], s.line)
		if err != nil {
			return nil, err
		}
		return []uint32{
			EncodeR(fnMULT, rs, rt, 0, 0),
			EncodeR(fnMFLO, 0, 0, rd, 0),
		}, nil
	}
	return nil, fmt.Errorf("asm: line %d: unknown mnemonic %q", s.line, s.mnem)
}

// memOperand parses "off(reg)" or "(reg)" or a bare label/number with
// register $zero.
func (a *assembler) memOperand(arg string, line int) (uint16, uint8, error) {
	open := strings.IndexByte(arg, '(')
	if open < 0 {
		v, err := a.value(arg, line)
		if err != nil {
			return 0, 0, err
		}
		return uint16(v), RegZero, nil
	}
	if !strings.HasSuffix(arg, ")") {
		return 0, 0, fmt.Errorf("asm: line %d: bad memory operand %q", line, arg)
	}
	base, err := a.reg(arg[open+1:len(arg)-1], line)
	if err != nil {
		return 0, 0, err
	}
	offStr := strings.TrimSpace(arg[:open])
	if offStr == "" {
		return 0, base, nil
	}
	v, err := a.value(offStr, line)
	if err != nil {
		return 0, 0, err
	}
	return uint16(v), base, nil
}

func splitMnem(line string) (string, string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return strings.ToLower(line), ""
	}
	return strings.ToLower(line[:i]), strings.TrimSpace(line[i+1:])
}

// splitArgs splits operands on commas, respecting quoted strings.
func splitArgs(rest string) []string {
	if rest == "" {
		return nil
	}
	var args []string
	depth := false // inside quotes
	cur := strings.Builder{}
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		switch {
		case c == '"':
			depth = !depth
			cur.WriteByte(c)
		case c == ',' && !depth:
			args = append(args, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		args = append(args, s)
	}
	return args
}

// isIntLiteral reports whether an operand is a numeric literal rather
// than a register or label reference.
func isIntLiteral(s string) bool {
	if s == "" || s[0] == '$' {
		return false
	}
	if s[0] == '-' || s[0] == '+' {
		s = s[1:]
	}
	return len(s) > 0 && s[0] >= '0' && s[0] <= '9'
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parseInt(args []string, idx, line int) (int64, error) {
	if idx >= len(args) {
		return 0, fmt.Errorf("asm: line %d: missing operand", line)
	}
	v, err := strconv.ParseInt(args[idx], 0, 64)
	if err != nil {
		return 0, fmt.Errorf("asm: line %d: bad integer %q", line, args[idx])
	}
	return v, nil
}

func parseString(args []string, line int) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("asm: line %d: string directive wants one operand", line)
	}
	s, err := strconv.Unquote(args[0])
	if err != nil {
		return "", fmt.Errorf("asm: line %d: bad string %s", line, args[0])
	}
	return s, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
