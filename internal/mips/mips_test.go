package mips

import (
	"fmt"
	"strings"
	"testing"

	"hornet/internal/noc"
)

// runLocal executes a program on a single core with local memory until it
// halts or maxCycles elapse.
func runLocal(t *testing.T, src string, maxCycles int) *Core {
	t.Helper()
	img, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := NewCore(0, 1, img, nil, nil)
	for i := 0; i < maxCycles && !c.Halted(); i++ {
		c.Tick(uint64(i))
	}
	if !c.Halted() {
		t.Fatalf("program did not halt in %d cycles (pc=%#x)", maxCycles, c.PC)
	}
	return c
}

func TestArithmeticAndPrint(t *testing.T) {
	c := runLocal(t, `
main:
	li   $t0, 6
	li   $t1, 7
	mul  $t2, $t0, $t1
	move $a0, $t2
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`, 1000)
	if got := c.Console(); got != "42" {
		t.Fatalf("console = %q, want 42", got)
	}
}

func TestLoadsStoresAndData(t *testing.T) {
	c := runLocal(t, `
	.data
vals:	.word 10, 20, 30, 40
sum:	.word 0
	.text
main:
	la   $t0, vals
	li   $t1, 4      # count
	li   $t2, 0      # sum
loop:
	lw   $t3, 0($t0)
	addu $t2, $t2, $t3
	addiu $t0, $t0, 4
	addiu $t1, $t1, -1
	bgtz $t1, loop
	la   $t4, sum
	sw   $t2, 0($t4)
	move $a0, $t2
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`, 1000)
	if got := c.Console(); got != "100" {
		t.Fatalf("console = %q, want 100", got)
	}
	sumAddr := uint32(0)
	img, _ := Assemble(".data\nx: .word 0\n") // dummy to silence linters
	_ = img
	// Find "sum" via a fresh assembly of the same source.
	v, err := c.RAM().Read(symbolOf(t, `
	.data
vals:	.word 10, 20, 30, 40
sum:	.word 0
`, "sum"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Fatalf("sum in memory = %d, want 100", v)
	}
	_ = sumAddr
}

func symbolOf(t *testing.T, src, name string) uint32 {
	t.Helper()
	img, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := img.Symbols[name]
	if !ok {
		t.Fatalf("symbol %q not found", name)
	}
	return a
}

func TestBranchesAndComparisons(t *testing.T) {
	c := runLocal(t, `
main:
	li   $t0, -5
	li   $t1, 3
	blt  $t0, $t1, ok1
	li   $v0, 10
	syscall
ok1:
	bgt  $t1, $t0, ok2
	li   $v0, 10
	syscall
ok2:
	bltz $t0, ok3
	li   $v0, 10
	syscall
ok3:
	li   $a0, 1
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`, 1000)
	if got := c.Console(); got != "1" {
		t.Fatalf("console = %q, want 1", got)
	}
}

func TestSignedUnsignedLoads(t *testing.T) {
	c := runLocal(t, `
	.data
b:	.byte 0xFF
	.align 1
h:	.half 0x8000
	.text
main:
	la   $t0, b
	lb   $t1, 0($t0)    # -1
	lbu  $t2, 0($t0)    # 255
	la   $t0, h
	lh   $t3, 0($t0)    # -32768
	lhu  $t4, 0($t0)    # 32768
	addu $a0, $t1, $t2  # -1 + 255 = 254
	addu $a0, $a0, $t3  # 254 - 32768 = -32514
	addu $a0, $a0, $t4  # -32514 + 32768 = 254
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`, 1000)
	if got := c.Console(); got != "254" {
		t.Fatalf("console = %q, want 254", got)
	}
}

func TestFunctionsAndStack(t *testing.T) {
	// Recursive factorial exercises jal/jr and stack discipline.
	c := runLocal(t, `
main:
	li   $a0, 6
	jal  fact
	move $a0, $v0
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
fact:
	addiu $sp, $sp, -8
	sw   $ra, 4($sp)
	sw   $a0, 0($sp)
	li   $v0, 1
	blez $a0, fact_ret
	addiu $a0, $a0, -1
	jal  fact
	lw   $a0, 0($sp)
	mul  $v0, $v0, $a0
fact_ret:
	lw   $ra, 4($sp)
	addiu $sp, $sp, 8
	jr   $ra
`, 10_000)
	if got := c.Console(); got != "720" {
		t.Fatalf("console = %q, want 720", got)
	}
}

func TestHiLoUnit(t *testing.T) {
	c := runLocal(t, `
main:
	li   $t0, 100000
	li   $t1, 100000
	multu $t0, $t1      # 10^10 = 0x2540BE400
	mfhi $t2            # 2
	mflo $t3            # 0x540BE400
	move $a0, $t2
	li   $v0, 1
	syscall
	li   $a0, 32
	li   $v0, 11
	syscall
	li   $t4, 7
	li   $t5, 3
	div  $t4, $t5
	mflo $a0            # 2
	li   $v0, 1
	syscall
	mfhi $a0            # 1
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`, 1000)
	if got := c.Console(); got != "2 21" {
		t.Fatalf("console = %q, want %q", got, "2 21")
	}
}

func TestPrintString(t *testing.T) {
	c := runLocal(t, `
	.data
msg:	.asciiz "hello, hornet\n"
	.text
main:
	la   $a0, msg
	li   $v0, 4
	syscall
	li   $v0, 10
	syscall
`, 1000)
	if got := c.Console(); got != "hello, hornet\n" {
		t.Fatalf("console = %q", got)
	}
}

func TestAssembleDecodeRoundTrip(t *testing.T) {
	img, err := Assemble(`
main:
	addu $t0, $t1, $t2
	sll  $t3, $t4, 5
	lw   $s0, 12($sp)
	beq  $t0, $t1, main
	jal  main
`)
	if err != nil {
		t.Fatal(err)
	}
	text := img.Segments[0].Data
	wants := []struct {
		idx            int
		op, rs, rt, rd uint8
		funct, shamt   uint8
	}{
		{0, opSpecial, 9, 10, 8, fnADDU, 0},
		{1, opSpecial, 0, 12, 11, fnSLL, 5},
	}
	for _, w := range wants {
		raw := uint32(text[4*w.idx]) | uint32(text[4*w.idx+1])<<8 |
			uint32(text[4*w.idx+2])<<16 | uint32(text[4*w.idx+3])<<24
		in := Decode(raw)
		if in.Op != w.op || in.Rs != w.rs || in.Rt != w.rt || in.Rd != w.rd ||
			in.Funct != w.funct || in.Shamt != w.shamt {
			t.Fatalf("inst %d decoded %+v, want %+v", w.idx, in, w)
		}
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []string{
		"bogus $t0, $t1",
		"add $t0, $t1",                             // wrong arity
		"lw $t0, 4($nosuchreg)",                    // bad register
		"beq $t0, $t1, missing",                    // undefined label
		"main: .word\naddi $t0, $t0, 1\nmain: nop", // duplicate label
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}

	// Each of these once panicked, asked for gigabytes or assembled a
	// field other than the one written; each must fail with its line.
	rejected := []struct{ src, want string }{
		{".bogus 1", `line 1: unknown mnemonic ".bogus"`},
		{"nop\njalr", "line 2: jalr wants 1 operands, got 0"},
		{"jalr $t0, $t1, $t2", "line 1: jalr wants 1 operands, got 3"},
		{".data\n.space -1", "line 2: negative size -1"},
		{".data\n.space 4000000000", "line 2: .data section grows past 16777216 bytes"},
		{".space 16777216\nnop", "line 2: .text section grows past 16777216 bytes"},
		{".data\n.byte 0\n.space 9223372036854775807", "line 3: .data section grows past 16777216 bytes"},
		{".byte 0\n.space 9223372036854775807", "line 2: .text section grows past 16777216 bytes"},
		{".data\n.align 40", "line 2: alignment 40 out of range [0, 31]"},
		{".data\n.align -1", "line 2: alignment -1 out of range [0, 31]"},
		{".data\n.byte 1\n.align 31", "line 3: .data section grows past 16777216 bytes"},
		{"sll $t0, $t1, 99", "line 1: shift amount 99 out of range [0, 31]"},
		{"srl $t0, $t1, -1", "line 1: shift amount -1 out of range [0, 31]"},
		{"addi $t0, $t0, 99999999", "line 1: immediate 99999999 out of range [-32768, 32767]"},
		{"addiu $t0, $t0, -32769", "line 1: immediate -32769 out of range [-32768, 32767]"},
		{"slti $t0, $t0, 32768", "line 1: immediate 32768 out of range [-32768, 32767]"},
		{"andi $t0, $t0, -1", "line 1: immediate -1 out of range [0, 65535]"},
		{"ori $t0, $t0, 65536", "line 1: immediate 65536 out of range [0, 65535]"},
		{"lui $t0, 0x10000", "line 1: immediate 0x10000 out of range [0, 65535]"},
		{"sw $t0, 32768($sp)", "line 1: offset 32768 out of range [-32768, 32767]"},
		{"lh $t0, -32769($sp)", "line 1: offset -32769 out of range [-32768, 32767]"},
		{".data\nx: .word 1\n.text\nlw $t0, x", "line 4: offset x out of range [-32768, 32767]"},
		{".half 1\nnop", `line 2: instruction "nop" at unaligned address 0x400002`},
	}
	for _, c := range rejected {
		_, err := Assemble(c.src)
		if err == nil || err.Error() != "asm: "+c.want {
			t.Errorf("Assemble(%q) = %v, want asm: %s", c.src, err, c.want)
		}
	}
}

// A data directive under .text places its bytes in .text, at the
// address pass 1 gave them.
func TestDataInText(t *testing.T) {
	img, err := Assemble(`
main:	j main
table:	.word main, 7
	.byte 1
	.align 2
	jr $ra
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x00, 0x00, 0x10, 0x08, 0x00, 0x00, 0x40, 0x00, 7, 0, 0, 0, 1, 0, 0, 0, 0x08, 0x00, 0xe0, 0x03}
	if len(img.Segments) != 1 || img.Segments[0].Addr != TextBase || string(img.Segments[0].Data) != string(want) {
		t.Fatalf("segments %+v, want one text segment % x", img.Segments, want)
	}
	if img.Symbols["table"] != TextBase+4 {
		t.Fatalf("table at %#x, want %#x", img.Symbols["table"], TextBase+4)
	}
}

func TestSyscallIdentity(t *testing.T) {
	img, err := Assemble(`
main:
	li  $v0, 64
	syscall
	move $a0, $v0
	li  $v0, 1
	syscall
	li  $a0, 47
	li  $v0, 11
	syscall
	li  $v0, 65
	syscall
	move $a0, $v0
	li  $v0, 1
	syscall
	li  $v0, 10
	syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(5, 16, img, nil, nil)
	for i := 0; i < 1000 && !c.Halted(); i++ {
		c.Tick(uint64(i))
	}
	if got := c.Console(); got != "5/16" {
		t.Fatalf("console = %q, want 5/16", got)
	}
}

func TestRAMAlignment(t *testing.T) {
	r := NewRAM()
	if _, err := r.Read(3, 4); err == nil {
		t.Fatal("misaligned word read succeeded")
	}
	if err := r.Write(1, 2, 7); err == nil {
		t.Fatal("misaligned half write succeeded")
	}
	if err := r.Write(0x1000, 4, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := r.Read(0x1000, 4)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("read back %#x, %v", v, err)
	}
	// Byte order: little endian.
	if b := r.ByteAt(0x1000); b != 0xEF {
		t.Fatalf("low byte %#x, want 0xEF", b)
	}
}

func TestConsolePseudoOps(t *testing.T) {
	// not / neg / move pseudo expansions.
	c := runLocal(t, `
main:
	li   $t0, 5
	neg  $t1, $t0      # -5
	not  $t2, $0       # -1
	addu $a0, $t1, $t2 # -6
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`, 1000)
	if !strings.Contains(c.Console(), "-6") {
		t.Fatalf("console = %q, want -6", c.Console())
	}
}

// net_send of the longest message one packet carries reaches the router as
// a noc.MaxPacketFlits-flit packet; one byte more fails the core, the way
// net_send without a network port does.
func TestNetSendLengthBound(t *testing.T) {
	for _, n := range []int{MaxSendBytes, MaxSendBytes + 1} {
		var offered []noc.Packet
		np := NewNetPort(0, func(p noc.Packet) { offered = append(offered, p) }, func() int { return 0 })
		c := NewCore(0, 2, assemble(t, fmt.Sprintf(`
main:
	li   $a0, 1
	li   $a1, 0x2000
	li   $a2, %d
	li   $v0, 60
	syscall
	li   $v0, 10
	syscall
`, n)), nil, np)
		func() {
			defer func() {
				want := fmt.Sprintf("mips: core 0: net_send of %d bytes, at most %d", n, MaxSendBytes)
				if got := recover(); n > MaxSendBytes && got != want {
					t.Fatalf("net_send of %d bytes: panic = %v, want %q", n, got, want)
				} else if n <= MaxSendBytes && got != nil {
					t.Fatalf("net_send of %d bytes panicked: %v", n, got)
				}
			}()
			for cycle := uint64(0); cycle < 20 && !c.Halted(); cycle++ {
				c.Tick(cycle)
				np.Tick(cycle)
			}
		}()
		if n <= MaxSendBytes && (len(offered) != 1 || offered[0].Flits != noc.MaxPacketFlits) {
			t.Fatalf("net_send of %d bytes offered %d packets, want one of %d flits", n, len(offered), noc.MaxPacketFlits)
		}
	}
}
