package workloads

import "fmt"

// The reduction kernel is a MiSaSiM-style multi-core tree reduction:
// every core computes a deterministic partial sum over its private
// element stream, then the partials combine pairwise up a binary tree —
// at each level the upper half of the surviving cores sends its partial
// one stride down (network DMA) and exits, until core 0 holds the total
// and prints it. It exercises the many-to-one traffic shape the
// ping-pong kernels cannot (log2(N) communication levels, N/2 messages
// at the first), and it scales to any power-of-two core count.

func init() {
	register(Kernel{
		Name:     "reduction",
		Title:    "binary-tree reduction of per-core partial sums",
		Defaults: Params{"elems": 64},
		Validate: func(p Params, nodes int) error {
			if err := checkRange(p, "elems", 1<<20); err != nil {
				return err
			}
			if nodes < 2 || nodes&(nodes-1) != 0 {
				return fmt.Errorf("reduction needs a power-of-two node count >= 2, topology has %d", nodes)
			}
			return nil
		},
		Source: func(p Params, cores []int) string {
			return ReductionSource(int(p["elems"]))
		},
	})
}

// ReductionElem is the deterministic element stream: core id's k-th
// element. Go-side verification recomputes the reduced total from it.
func ReductionElem(id, k int) int32 { return int32((id*31 + k*7 + 1) & 0xFF) }

// ReductionChecksum is the total core 0 prints for a given machine:
// the wrap-around 32-bit sum of every core's elements.
func ReductionChecksum(nodes, elems int) int32 {
	var sum int32
	for id := 0; id < nodes; id++ {
		for k := 0; k < elems; k++ {
			sum += ReductionElem(id, k)
		}
	}
	return sum
}

// ReductionSource generates the MIPS source for the tree reduction with
// the per-core element count baked in.
func ReductionSource(elems int) string {
	return fmt.Sprintf(`# Binary-tree reduction, %d elements per core.
	.data
buf:	.space 4
	.text
main:
	li   $v0, 64
	syscall
	move $s0, $v0        # id
	li   $v0, 65
	syscall
	move $s1, $v0        # cores
	li   $s2, %d         # elems per core
	li   $s3, 0          # partial sum
	li   $t0, 0          # k
sum:
	mul  $t1, $s0, 31
	mul  $t2, $t0, 7
	addu $t1, $t1, $t2
	addiu $t1, $t1, 1
	andi $t1, $t1, 255
	addu $s3, $s3, $t1
	addiu $t0, $t0, 1
	blt  $t0, $s2, sum

	# Combine pairwise up the tree. At stride s, cores with
	# id mod 2s == s send their partial to id-s and exit; cores with
	# id mod 2s == 0 receive and fold it in, then double the stride.
	li   $s4, 1          # stride
tree:
	bge  $s4, $s1, root
	sll  $t3, $s4, 1
	addiu $t4, $t3, -1
	and  $t5, $s0, $t4   # id mod 2*stride (stride is a power of two)
	beq  $t5, $s4, send
	bnez $t5, idle
	addu $a0, $s0, $s4   # partner = id + stride
	la   $a1, buf
	li   $a2, 4
	li   $v0, 63         # blocking receive of the partner's partial
	syscall
	la   $t6, buf
	lw   $t7, 0($t6)
	addu $s3, $s3, $t7
	sll  $s4, $s4, 1
	b    tree

send:
	la   $t6, buf
	sw   $s3, 0($t6)
	subu $a0, $s0, $s4   # parent = id - stride
	la   $a1, buf
	li   $a2, 4
	li   $v0, 60
	syscall
idle:
	li   $v0, 10
	syscall

root:
	move $a0, $s3
	li   $v0, 1          # print the reduced total
	syscall
	li   $v0, 10
	syscall
`, elems, elems)
}
