# Every machine mnemonic and operand form, every pseudo-instruction and
# every directive the assembler accepts, with branches both ways.
# TestAssembleGolden pins the image this assembles to.
	.globl main
	.global words
	.data
words:	.word 1, -1, 0x7fffffff, main, fwd, 0
halves:	.half 1, -2, 0xffff
bytes:	.byte -1, 255, 0, 0x7f
	.align 2
buf:	.space 12
str:	.ascii "hi\n"
strz:	.asciiz "a,b \"q\""
	.align 3
tail:	.word words, tail

	.text
	.ent start
start:	nop                       # entry is main, not the first word
	.end start
	.ent main
main:
back:	syscall
	add  $t0, $t1, $t2
	addu $8, $9, $10
	sub  $t0, $t1, $t2
	subu $t0, $t1, $t2
	and  $t0, $t1, $t2
	or   $t0, $t1, $t2
	xor  $t0, $t1, $t2
	nor  $t0, $t1, $t2
	slt  $t0, $t1, $t2
	SLTU $t0, $t1, $t2
	sllv $t0, $t1, $t2
	srlv $t0, $t1, $t2
	srav $t0, $t1, $t2
	sll  $t0, $t1, 31
	srl  $t0, $t1, 0
	sra  $t0, $t1, 0x10
	addi  $t0, $t1, -32768
	addiu $t0, $t1, 32767
	slti  $t0, $t1, -1
	sltiu $t0, $t1, 100
	andi  $t0, $t1, 0xffff
	ori   $t0, $t1, 0
	xori  $t0, $t1, 65535
	lui   $t0, 0x1001
	lb   $t0, 0($t1)
	lbu  $t0, ($t1)
	lh   $t0, -2($sp)
	lhu  $t0, 2($sp)
	lw   $t0, 32767($gp)
	lw   $t0, 16
	sb   $t0, -32768($t1)
	sh   $t0, 6($t1)
	sw   $ra, 0($sp)
mid: one: beq  $t0, $t1, back     # two labels on one line
	bne  $t0, $t1, fwd
	blez $t0, back
	bgtz $t0, fwd
	bltz $t0, back
	bgez $t0, fwd
	j    back
	jal  fwd
	jr   $ra
	jalr $t9
	jalr $t8, $t9
	mult  $t0, $t1
	multu $t0, $t1
	div   $t0, $t1
	divu  $t0, $t1
	mfhi $t0
	mflo $t0
	mthi $t0
	mtlo $t0
	.align 4
	li   $t0, fwd
	li   $t0, -5
	li   $t0, 0x12345678
	la   $a0, words
	move $t0, $t1
	neg  $t0, $t1
	not  $t0, $t1
	b    back
	beqz $t0, fwd
	bnez $t0, back
	blt  $t0, $t1, back
	bgt  $t0, $t1, fwd
	ble  $t0, $t1, back
	bge  $t0, $t1, fwd
	blt  $t0, $t1, mid
	bge  $t0, $t1, end
	mul  $t0, $t1, $t2
	mul  $t0, $t1, -3
	mul  $t0, $t1, 100000
	.data
more:	.word more, end
	.text
fwd:	addiu $sp, $sp, -8
	lw   $ra, 0($sp)
end:	jr   $ra
	.end main
