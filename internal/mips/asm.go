package mips

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Default section base addresses (SPIM conventions), and the most bytes
// one section may hold. Every registered kernel stays far below the
// bound (Cannon at b 64 needs about 80 KB); it keeps a malformed .space
// or .align from asking for gigabytes.
const (
	TextBase = 0x0040_0000
	DataBase = 0x1001_0000

	sectionLimit = 16 << 20
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
// syntax: labels ("name:"), comments from '#', the sections .text and
// .data, the data directives .word, .half and .byte (integers or
// labels), .ascii, .asciiz, .space and .align (a power of two, 0..31),
// and .globl, .global, .ent and .end, which are accepted and ignored.
// Instructions are the MIPS32 integer subset the core executes (the
// machine table below; jalr takes "rs" or "rd, rs") and the common
// pseudo-instructions (li, la, move, nop, b, beqz, bnez, blt/bgt/ble/bge,
// mul with a register or a constant, neg, not). Branch and jump targets
// are labels; loads and stores take "off(reg)", "(reg)" or a bare offset
// from $zero. A data directive in .text places its bytes in .text.
//
// Every error names its line. Besides unknown mnemonics, registers and
// labels and wrong operand counts, Assemble rejects a shift amount
// outside 0..31, a sign-extended immediate or memory offset outside
// -32768..32767, a zero-extended immediate (andi, ori, xori, lui) outside
// 0..65535, a branch out of reach, a negative .space, and any section
// that would grow past 16 MiB. The lui/ori halves li, la and mul load
// take any 32-bit value.
func Assemble(src string) (*Image, error) {
	a := &assembler{
		symbols: make(map[string]uint32),
		text:    section{name: ".text", base: TextBase, pc: TextBase},
		data:    section{name: ".data", base: DataBase, pc: DataBase},
	}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	if err := a.pass2(); err != nil {
		return nil, err
	}
	img := &Image{Symbols: a.symbols}
	if len(a.text.buf) > 0 {
		img.Segments = append(img.Segments, Segment{Addr: TextBase, Data: a.text.buf})
	}
	if len(a.data.buf) > 0 {
		img.Segments = append(img.Segments, Segment{Addr: DataBase, Data: a.data.buf})
	}
	img.Entry = TextBase
	if m, ok := a.symbols["main"]; ok {
		img.Entry = m
	}
	return img, nil
}

// form is a machine instruction's operand syntax; encode switches on it.
type form uint8

const (
	fNone      form = iota // syscall
	fRdRsRt                // add rd, rs, rt
	fRdRtRs                // sllv rd, rt, rs
	fRdRtSh                // sll rd, rt, shamt
	fRtRsImm               // addi rt, rs, imm (sign-extended)
	fRtRsUImm              // andi rt, rs, imm (zero-extended)
	fRtUImm                // lui rt, imm
	fRtMem                 // lw rt, off(base)
	fRsRtLabel             // beq rs, rt, label
	fRsLabel               // blez rs, label
	fLabel                 // j label
	fRs                    // jr rs
	fRd                    // mfhi rd
	fRsRt                  // mult rs, rt
	fJalr                  // jalr [rd,] rs
)

// operands is each form's operand count (jalr also takes two).
var operands = [...]int{fNone: 0, fRdRsRt: 3, fRdRtRs: 3, fRdRtSh: 3, fRtRsImm: 3, fRtRsUImm: 3,
	fRtUImm: 2, fRtMem: 2, fRsRtLabel: 3, fRsLabel: 2, fLabel: 1, fRs: 1, fRd: 1, fRsRt: 2, fJalr: 1}

// machine is the instruction set: each mnemonic's operand form, opcode,
// and SPECIAL function or REGIMM rt.
var machine = map[string]struct {
	form   form
	op, fn uint8
}{
	"syscall": {fNone, opSpecial, fnSYSCALL},
	"add":     {fRdRsRt, opSpecial, fnADD},
	"addu":    {fRdRsRt, opSpecial, fnADDU},
	"sub":     {fRdRsRt, opSpecial, fnSUB},
	"subu":    {fRdRsRt, opSpecial, fnSUBU},
	"and":     {fRdRsRt, opSpecial, fnAND},
	"or":      {fRdRsRt, opSpecial, fnOR},
	"xor":     {fRdRsRt, opSpecial, fnXOR},
	"nor":     {fRdRsRt, opSpecial, fnNOR},
	"slt":     {fRdRsRt, opSpecial, fnSLT},
	"sltu":    {fRdRsRt, opSpecial, fnSLTU},
	"sllv":    {fRdRtRs, opSpecial, fnSLLV},
	"srlv":    {fRdRtRs, opSpecial, fnSRLV},
	"srav":    {fRdRtRs, opSpecial, fnSRAV},
	"sll":     {fRdRtSh, opSpecial, fnSLL},
	"srl":     {fRdRtSh, opSpecial, fnSRL},
	"sra":     {fRdRtSh, opSpecial, fnSRA},
	"addi":    {fRtRsImm, opADDI, 0},
	"addiu":   {fRtRsImm, opADDIU, 0},
	"slti":    {fRtRsImm, opSLTI, 0},
	"sltiu":   {fRtRsImm, opSLTIU, 0},
	"andi":    {fRtRsUImm, opANDI, 0},
	"ori":     {fRtRsUImm, opORI, 0},
	"xori":    {fRtRsUImm, opXORI, 0},
	"lui":     {fRtUImm, opLUI, 0},
	"lb":      {fRtMem, opLB, 0},
	"lbu":     {fRtMem, opLBU, 0},
	"lh":      {fRtMem, opLH, 0},
	"lhu":     {fRtMem, opLHU, 0},
	"lw":      {fRtMem, opLW, 0},
	"sb":      {fRtMem, opSB, 0},
	"sh":      {fRtMem, opSH, 0},
	"sw":      {fRtMem, opSW, 0},
	"beq":     {fRsRtLabel, opBEQ, 0},
	"bne":     {fRsRtLabel, opBNE, 0},
	"blez":    {fRsLabel, opBLEZ, 0},
	"bgtz":    {fRsLabel, opBGTZ, 0},
	"bltz":    {fRsLabel, opRegImm, rtBLTZ},
	"bgez":    {fRsLabel, opRegImm, rtBGEZ},
	"j":       {fLabel, opJ, 0},
	"jal":     {fLabel, opJAL, 0},
	"jr":      {fRs, opSpecial, fnJR},
	"jalr":    {fJalr, opSpecial, fnJALR},
	"mthi":    {fRs, opSpecial, fnMTHI},
	"mtlo":    {fRs, opSpecial, fnMTLO},
	"mfhi":    {fRd, opSpecial, fnMFHI},
	"mflo":    {fRd, opSpecial, fnMFLO},
	"mult":    {fRsRt, opSpecial, fnMULT},
	"multu":   {fRsRt, opSpecial, fnMULTU},
	"div":     {fRsRt, opSpecial, fnDIV},
	"divu":    {fRsRt, opSpecial, fnDIVU},
}

// pseudos rewrites each pseudo-instruction into machine instructions,
// each a mnemonic and its operands; %N stands for the pseudo-instruction's
// operand N. The lui and ori of a rewrite load the upper and lower half of
// a 32-bit value. mul uses imm instead of to when its last operand is an
// integer literal.
var pseudos = map[string]struct {
	operands int
	to, imm  [][]string
}{
	"nop":  {0, [][]string{{"sll", "$zero", "$zero", "0"}}, nil},
	"move": {2, [][]string{{"addu", "%0", "%1", "$zero"}}, nil},
	"neg":  {2, [][]string{{"sub", "%0", "$zero", "%1"}}, nil},
	"not":  {2, [][]string{{"nor", "%0", "%1", "$zero"}}, nil},
	"b":    {1, [][]string{{"beq", "$zero", "$zero", "%0"}}, nil},
	"beqz": {2, [][]string{{"beq", "%0", "$zero", "%1"}}, nil},
	"bnez": {2, [][]string{{"bne", "%0", "$zero", "%1"}}, nil},
	"li":   {2, [][]string{{"lui", "$at", "%1"}, {"ori", "%0", "$at", "%1"}}, nil},
	"la":   {2, [][]string{{"lui", "$at", "%1"}, {"ori", "%0", "$at", "%1"}}, nil},
	"blt":  {3, [][]string{{"slt", "$at", "%0", "%1"}, {"bne", "$at", "$zero", "%2"}}, nil},
	"bgt":  {3, [][]string{{"slt", "$at", "%1", "%0"}, {"bne", "$at", "$zero", "%2"}}, nil},
	"ble":  {3, [][]string{{"slt", "$at", "%1", "%0"}, {"beq", "$at", "$zero", "%2"}}, nil},
	"bge":  {3, [][]string{{"slt", "$at", "%0", "%1"}, {"beq", "$at", "$zero", "%2"}}, nil},
	"mul": {3, [][]string{{"mult", "%1", "%2"}, {"mflo", "%0"}},
		[][]string{{"lui", "$at", "%2"}, {"ori", "$at", "$at", "%2"}, {"mult", "%1", "$at"}, {"mflo", "%0"}}},
}

// section is one output section: its next address in pass 1, its bytes
// in pass 2.
type section struct {
	name     string
	base, pc uint32
	buf      []byte
}

// stmt is one machine instruction or data directive at its address.
type stmt struct {
	line int
	mnem string
	args []string
	addr uint32
	sec  *section
	// half marks an instruction a pseudo-instruction expanded to: its lui
	// or ori takes a half of a 32-bit immediate.
	half bool
}

type assembler struct {
	symbols    map[string]uint32
	text, data section
	stmts      []stmt
	// sizing is set in pass 1, where a label not defined yet reads as 0.
	sizing bool
}

// pass1 expands pseudo-instructions, assigns every statement its address
// and collects labels. A machine instruction is one word; a data
// directive is as long as what datum encodes it to.
func (a *assembler) pass1(src string) error {
	a.sizing = true
	sec := &a.text
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
			a.symbols[label] = sec.pc
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		mnem, rest := splitMnem(line)
		s := stmt{line: lineNo + 1, mnem: mnem, args: splitArgs(rest), addr: sec.pc, sec: sec}
		var err error
		switch mnem {
		case ".text":
			sec = &a.text
		case ".data":
			sec = &a.data
		case ".globl", ".global", ".ent", ".end":
			// accepted and ignored
		case ".word", ".half", ".byte", ".space", ".asciiz", ".ascii", ".align":
			var b []byte
			if b, err = a.datum(&s); err == nil {
				err = a.place(s, len(b))
			}
		default:
			err = a.expand(s)
		}
		if err != nil {
			return err
		}
	}
	a.sizing = false
	return nil
}

// place gives s the next size bytes of its section.
func (a *assembler) place(s stmt, size int) error {
	s.addr = s.sec.pc
	if err := s.fits(int64(size)); err != nil {
		return err
	}
	s.sec.pc += uint32(size)
	a.stmts = append(a.stmts, s)
	return nil
}

// fits fails when n more bytes at s's address would grow its section
// past sectionLimit.
func (s *stmt) fits(n int64) error {
	if n > sectionLimit-int64(s.addr-s.sec.base) {
		return fmt.Errorf("asm: line %d: %s section grows past %d bytes", s.line, s.sec.name, sectionLimit)
	}
	return nil
}

// expand places an instruction: a machine instruction as it is, a
// pseudo-instruction as its rewrite.
func (a *assembler) expand(s stmt) error {
	if s.sec != &a.text {
		return fmt.Errorf("asm: line %d: instruction %q in .data section", s.line, s.mnem)
	}
	_, ok := machine[s.mnem]
	p, pseudo := pseudos[s.mnem]
	switch {
	case !ok && !pseudo:
		return fmt.Errorf("asm: line %d: unknown mnemonic %q", s.line, s.mnem)
	case s.addr&3 != 0:
		return fmt.Errorf("asm: line %d: instruction %q at unaligned address %#x", s.line, s.mnem, s.addr)
	case ok:
		return a.place(s, 4)
	}
	if len(s.args) != p.operands {
		return fmt.Errorf("asm: line %d: %s wants %d operands, got %d", s.line, s.mnem, p.operands, len(s.args))
	}
	to := p.to
	if p.imm != nil && isIntLiteral(s.args[len(s.args)-1]) {
		to = p.imm
	}
	for _, inst := range to {
		m := stmt{line: s.line, mnem: inst[0], args: make([]string, len(inst)-1), sec: s.sec, half: true}
		for i, arg := range inst[1:] {
			if arg[0] == '%' {
				arg = s.args[arg[1]-'0']
			}
			m.args[i] = arg
		}
		if err := a.place(m, 4); err != nil {
			return err
		}
	}
	return nil
}

// pass2 encodes every statement into its section.
func (a *assembler) pass2() error {
	a.text.buf = make([]byte, a.text.pc-a.text.base)
	a.data.buf = make([]byte, a.data.pc-a.data.base)
	for i := range a.stmts {
		s := &a.stmts[i]
		out := s.sec.buf[s.addr-s.sec.base:]
		if strings.HasPrefix(s.mnem, ".") {
			b, err := a.datum(s)
			if err != nil {
				return err
			}
			copy(out, b)
			continue
		}
		w, err := a.encode(s)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(out, w)
	}
	return nil
}

// datum encodes a data directive, or the padding of an .align, into the
// bytes it places at s.addr. Pass 1 sizes the directive with it.
func (a *assembler) datum(s *stmt) ([]byte, error) {
	switch s.mnem {
	case ".word":
		return a.ints(s, 4)
	case ".half":
		return a.ints(s, 2)
	case ".byte":
		return a.ints(s, 1)
	case ".asciiz", ".ascii":
		str, err := parseString(s.args, s.line)
		if err != nil {
			return nil, err
		}
		b := []byte(str)
		if s.mnem == ".asciiz" {
			b = append(b, 0)
		}
		return b, nil
	}
	n, err := parseInt(s.args, 0, s.line)
	if err != nil {
		return nil, err
	}
	if s.mnem == ".align" {
		if n < 0 || n > 31 {
			return nil, fmt.Errorf("asm: line %d: alignment %d out of range [0, 31]", s.line, n)
		}
		n = int64(-s.addr & (1<<n - 1))
	} else if n < 0 {
		return nil, fmt.Errorf("asm: line %d: negative size %d", s.line, n)
	}
	if err := s.fits(n); err != nil {
		return nil, err
	}
	return make([]byte, n), nil
}

// ints encodes s's operands as little-endian integers of w bytes each.
func (a *assembler) ints(s *stmt, w int) ([]byte, error) {
	b := make([]byte, w*len(s.args))
	var le [4]byte
	for i, arg := range s.args {
		v, err := a.value(arg, s.line)
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(le[:], uint32(v))
		copy(b[w*i:], le[:w])
	}
	return b, nil
}

// value resolves an integer literal or a label; in pass 1 a label not
// defined yet reads as 0.
func (a *assembler) value(arg string, line int) (int64, error) {
	if v, ok := a.symbols[arg]; ok {
		return int64(v), nil
	}
	n, err := strconv.ParseInt(arg, 0, 64)
	if err != nil && !(a.sizing && validLabel(arg)) {
		return 0, fmt.Errorf("asm: line %d: bad value %q", line, arg)
	}
	return n, nil
}

// encode translates one machine instruction into its word.
func (a *assembler) encode(s *stmt) (uint32, error) {
	in := machine[s.mnem]
	args := s.args
	if n := operands[in.form]; len(args) != n && !(in.form == fJalr && len(args) == 2) {
		return 0, fmt.Errorf("asm: line %d: %s wants %d operands, got %d", s.line, s.mnem, n, len(args))
	}
	f := fields{a: a, s: s}
	var w uint32
	switch in.form {
	case fNone:
		w = EncodeR(in.fn, 0, 0, 0, 0)
	case fRdRsRt:
		rd, rs, rt := f.reg(args[0]), f.reg(args[1]), f.reg(args[2])
		w = EncodeR(in.fn, rs, rt, rd, 0)
	case fRdRtRs:
		rd, rt, rs := f.reg(args[0]), f.reg(args[1]), f.reg(args[2])
		w = EncodeR(in.fn, rs, rt, rd, 0)
	case fRdRtSh:
		rd, rt, sh := f.reg(args[0]), f.reg(args[1]), f.imm(args[2], 0, 31, "shift amount")
		w = EncodeR(in.fn, 0, rt, rd, uint8(sh))
	case fRtRsImm, fRtRsUImm:
		rt, rs, imm := f.reg(args[0]), f.reg(args[1]), f.imm16(args[2], in.form == fRtRsUImm)
		w = EncodeI(in.op, rs, rt, uint16(imm))
	case fRtUImm:
		rt, imm := f.reg(args[0]), f.imm16(args[1], true)
		if s.half {
			imm >>= 16
		}
		w = EncodeI(in.op, 0, rt, uint16(imm))
	case fRtMem:
		rt := f.reg(args[0])
		off, base := f.mem(args[1])
		w = EncodeI(in.op, base, rt, off)
	case fRsRtLabel:
		rs, rt, off := f.reg(args[0]), f.reg(args[1]), f.branch(args[2])
		w = EncodeI(in.op, rs, rt, off)
	case fRsLabel:
		rs, off := f.reg(args[0]), f.branch(args[1])
		w = EncodeI(in.op, rs, in.fn, off)
	case fLabel:
		w = EncodeJ(in.op, f.label(args[0])>>2)
	case fRs:
		w = EncodeR(in.fn, f.reg(args[0]), 0, 0, 0)
	case fRd:
		w = EncodeR(in.fn, 0, 0, f.reg(args[0]), 0)
	case fRsRt:
		rs, rt := f.reg(args[0]), f.reg(args[1])
		w = EncodeR(in.fn, rs, rt, 0, 0)
	case fJalr:
		rd := uint8(RegRA)
		if len(args) == 2 {
			rd = f.reg(args[0])
		}
		w = EncodeR(in.fn, f.reg(args[len(args)-1]), 0, rd, 0)
	}
	return w, f.err
}

// fields parses one statement's operands into instruction fields,
// keeping the first error.
type fields struct {
	a   *assembler
	s   *stmt
	err error
}

func (f *fields) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf("asm: line %d: "+format, append([]any{f.s.line}, args...)...)
	}
}

func (f *fields) reg(arg string) uint8 {
	r, err := RegNumber(arg)
	if err != nil {
		f.fail("%v", err)
	}
	return r
}

// imm reads an integer literal or label in [lo, hi].
func (f *fields) imm(arg string, lo, hi int64, what string) int64 {
	v, err := f.a.value(arg, f.s.line)
	switch {
	case err != nil:
		if f.err == nil {
			f.err = err
		}
	case v < lo || v > hi:
		f.fail("%s %s out of range [%d, %d]", what, arg, lo, hi)
	}
	return v
}

// imm16 reads a 16-bit immediate, zero- or sign-extended by its
// instruction; a pseudo-instruction's half takes any value.
func (f *fields) imm16(arg string, zext bool) int64 {
	switch {
	case f.s.half:
		return f.imm(arg, math.MinInt64, math.MaxInt64, "")
	case zext:
		return f.imm(arg, 0, math.MaxUint16, "immediate")
	}
	return f.imm(arg, math.MinInt16, math.MaxInt16, "immediate")
}

// mem parses "off(reg)", "(reg)", or a bare offset from $zero.
func (f *fields) mem(arg string) (off uint16, base uint8) {
	open := strings.IndexByte(arg, '(')
	if open < 0 {
		return uint16(f.imm(arg, math.MinInt16, math.MaxInt16, "offset")), RegZero
	}
	if !strings.HasSuffix(arg, ")") {
		f.fail("bad memory operand %q", arg)
		return 0, 0
	}
	base = f.reg(arg[open+1 : len(arg)-1])
	if offStr := strings.TrimSpace(arg[:open]); offStr != "" {
		off = uint16(f.imm(offStr, math.MinInt16, math.MaxInt16, "offset"))
	}
	return off, base
}

func (f *fields) label(arg string) uint32 {
	target, ok := f.a.symbols[arg]
	if !ok {
		f.fail("undefined label %q", arg)
	}
	return target
}

// branch computes the PC-relative offset (in words) from the
// instruction to a label.
func (f *fields) branch(arg string) uint16 {
	target, ok := f.a.symbols[arg]
	if !ok {
		f.fail("undefined label %q", arg)
		return 0
	}
	diff := int64(target) - int64(f.s.addr+4)
	if diff&3 != 0 {
		f.fail("misaligned branch target %q", arg)
	}
	words := diff >> 2
	if words < math.MinInt16 || words > math.MaxInt16 {
		f.fail("branch to %q out of range", arg)
	}
	return uint16(words)
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
