package workloads

import "fmt"

// The matmul-blocked kernel runs one independent n x n blocked matrix
// multiply per core — C += A x B in b x b blocks, the classic
// cache-blocking loop order — with per-core operands derived from the
// core ID, then gathers every core's C checksum at node 0 for a single
// printed total. Unlike cannon it places no constraint on the topology
// shape or node count, so it is the schema's "any machine" compute
// workload, with an all-to-one gather at the end.

func init() {
	register(Kernel{
		Name:     "matmul-blocked",
		Title:    "per-core blocked matrix multiply with checksum gather",
		Defaults: Params{"n": 8, "b": 4},
		Validate: func(p Params, nodes int) error {
			if err := checkRange(p, "n", 64); err != nil {
				return err
			}
			n, b := p["n"], p["b"]
			if err := checkRange(p, "b", n); err != nil {
				return err
			}
			if n%b != 0 {
				return &ParamError{Param: "b", Msg: fmt.Sprintf("block size b = %d must divide n = %d", b, n)}
			}
			return nil
		},
		Source: func(p Params, cores []int) string {
			return MatmulBlockedSource(int(p["n"]), int(p["b"]))
		},
	})
}

// MatmulAElem and MatmulBElem define core id's deterministic operand
// matrices so Go-side verification can recompute the expected product.
func MatmulAElem(id, r, c int) int32 { return int32((3*r + 5*c + id + 1) & 0xF) }

// MatmulBElem is the second operand's entry generator.
func MatmulBElem(id, r, c int) int32 { return int32((7*r + 11*c + 2*id + 3) & 0xF) }

// MatmulChecksum is core id's expected C checksum: the wrap-around
// 32-bit sum over its n x n product matrix (independent of the block
// size — blocking only reorders associative additions).
func MatmulChecksum(id, n int) int32 {
	var sum int32
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var e int32
			for k := 0; k < n; k++ {
				e += MatmulAElem(id, i, k) * MatmulBElem(id, k, j)
			}
			sum += e
		}
	}
	return sum
}

// MatmulTotal is the machine-wide total node 0 prints: every core's
// checksum folded together.
func MatmulTotal(nodes, n int) int32 {
	var sum int32
	for id := 0; id < nodes; id++ {
		sum += MatmulChecksum(id, n)
	}
	return sum
}

// MatmulBlockedSource generates the MIPS source for the per-core
// blocked multiply with n and b baked in.
func MatmulBlockedSource(n, b int) string {
	words := 4 * n * n
	return fmt.Sprintf(`# Blocked matrix multiply, %dx%d in %dx%d blocks, per-core operands.
	.data
matA:	.space %d
matB:	.space %d
matC:	.space %d
buf:	.space 4
	.text
main:
	li   $v0, 64
	syscall
	move $s0, $v0        # id
	li   $v0, 65
	syscall
	move $s1, $v0        # cores
	li   $s2, %d         # n
	li   $s3, %d         # b

	la   $a0, matA
	li   $a3, 0
	jal  genmat
	la   $a0, matB
	li   $a3, 1
	jal  genmat

	# zero C
	la   $t0, matC
	mul  $t1, $s2, $s2
zc:
	sw   $0, 0($t0)
	addiu $t0, $t0, 4
	addiu $t1, $t1, -1
	bgtz $t1, zc

	# blocked C += A*B: block-origin loops (s4=i0, s5=j0, s6=k0)
	li   $s4, 0
bi0:
	li   $s5, 0
bj0:
	li   $s6, 0
bk0:
	jal  blockmm
	addu $s6, $s6, $s3
	blt  $s6, $s2, bk0
	addu $s5, $s5, $s3
	blt  $s5, $s2, bj0
	addu $s4, $s4, $s3
	blt  $s4, $s2, bi0

	# checksum C into s7
	la   $t0, matC
	mul  $t1, $s2, $s2
	li   $s7, 0
ck:
	lw   $t3, 0($t0)
	addu $s7, $s7, $t3
	addiu $t0, $t0, 4
	addiu $t1, $t1, -1
	bgtz $t1, ck

	bnez $s0, leaf
	# node 0 gathers every other core's checksum, in core order
	li   $s4, 1
gather:
	bge  $s4, $s1, report
	move $a0, $s4
	la   $a1, buf
	li   $a2, 4
	li   $v0, 63
	syscall
	la   $t0, buf
	lw   $t1, 0($t0)
	addu $s7, $s7, $t1
	addiu $s4, $s4, 1
	b    gather
report:
	move $a0, $s7
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall

leaf:
	la   $t0, buf
	sw   $s7, 0($t0)
	li   $a0, 0
	la   $a1, buf
	li   $a2, 4
	li   $v0, 60
	syscall
	li   $v0, 10
	syscall

# genmat(a0=dst, a3=formula): fill n x n from the per-core element formulas
#   A: (3r + 5c + id + 1) & 15      B: (7r + 11c + 2*id + 3) & 15
genmat:
	li   $t0, 0          # r
gm_r:
	li   $t1, 0          # c
gm_c:
	bnez $a3, gm_b
	mul  $t2, $t0, 3
	mul  $t3, $t1, 5
	addu $t2, $t2, $t3
	addu $t2, $t2, $s0
	addiu $t2, $t2, 1
	b    gm_store
gm_b:
	mul  $t2, $t0, 7
	mul  $t3, $t1, 11
	addu $t2, $t2, $t3
	addu $t2, $t2, $s0
	addu $t2, $t2, $s0
	addiu $t2, $t2, 3
gm_store:
	andi $t2, $t2, 15
	mul  $t3, $t0, $s2
	addu $t3, $t3, $t1
	sll  $t3, $t3, 2
	addu $t3, $t3, $a0
	sw   $t2, 0($t3)
	addiu $t1, $t1, 1
	blt  $t1, $s2, gm_c
	addiu $t0, $t0, 1
	blt  $t0, $s2, gm_r
	jr   $ra

# blockmm: C[i0:i0+b, j0:j0+b] += A[i0:i0+b, k0:k0+b] x B[k0:k0+b, j0:j0+b]
blockmm:
	li   $t0, 0          # i
bm_i:
	li   $t1, 0          # j
bm_j:
	li   $t2, 0          # k
	li   $t3, 0          # acc
bm_k:
	addu $t4, $s4, $t0   # r = i0 + i
	mul  $t4, $t4, $s2
	addu $t5, $s6, $t2   # k0 + k
	addu $t4, $t4, $t5
	sll  $t4, $t4, 2
	la   $t6, matA
	addu $t4, $t4, $t6
	lw   $t4, 0($t4)     # A[r][k0+k]
	addu $t5, $s6, $t2
	mul  $t5, $t5, $s2
	addu $t6, $s5, $t1   # c = j0 + j
	addu $t5, $t5, $t6
	sll  $t5, $t5, 2
	la   $t6, matB
	addu $t5, $t5, $t6
	lw   $t5, 0($t5)     # B[k0+k][c]
	mul  $t4, $t4, $t5
	addu $t3, $t3, $t4
	addiu $t2, $t2, 1
	blt  $t2, $s3, bm_k
	# C[r][c] += acc
	addu $t4, $s4, $t0
	mul  $t4, $t4, $s2
	addu $t5, $s5, $t1
	addu $t4, $t4, $t5
	sll  $t4, $t4, 2
	la   $t5, matC
	addu $t4, $t4, $t5
	lw   $t5, 0($t4)
	addu $t5, $t5, $t3
	sw   $t5, 0($t4)
	addiu $t1, $t1, 1
	blt  $t1, $s3, bm_j
	addiu $t0, $t0, 1
	blt  $t0, $s3, bm_i
	jr   $ra
`, n, n, b, b, words, words, words, n, b)
}
