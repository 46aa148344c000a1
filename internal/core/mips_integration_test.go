package core

import (
	"fmt"
	"strconv"
	"testing"

	"hornet/internal/config"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/workloads"
)

// pingPongSrc: node 0 sends a counter to node N-1, which increments and
// returns it, R times; node 0 prints the final value.
const pingPongSrc = `
	.data
buf:	.space 8
	.text
main:
	li   $v0, 64
	syscall
	move $s0, $v0        # id
	li   $v0, 65
	syscall
	addiu $s1, $v0, -1   # partner/last id
	li   $s2, 20         # rounds
	bnez $s0, responder

	# node 0: initiate
	li   $s3, 0          # counter
p0_loop:
	la   $t0, buf
	sw   $s3, 0($t0)
	move $a0, $s1
	la   $a1, buf
	li   $a2, 4
	li   $v0, 60
	syscall
	move $a0, $s1
	la   $a1, buf
	li   $a2, 4
	li   $v0, 63
	syscall
	la   $t0, buf
	lw   $s3, 0($t0)
	addiu $s2, $s2, -1
	bgtz $s2, p0_loop
	move $a0, $s3
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall

responder:
	bne  $s0, $s1, idle
r_loop:
	li   $a0, 0
	la   $a1, buf
	li   $a2, 4
	li   $v0, 63
	syscall
	la   $t0, buf
	lw   $t1, 0($t0)
	addiu $t1, $t1, 1
	sw   $t1, 0($t0)
	li   $a0, 0
	la   $a1, buf
	li   $a2, 4
	li   $v0, 60
	syscall
	addiu $s2, $s2, -1
	bgtz $s2, r_loop
idle:
	li   $v0, 10
	syscall
`

func TestMIPSPingPongOverNoC(t *testing.T) {
	cfg := smallCfg()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mips.Assemble(pingPongSrc)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]noc.NodeID, sys.Topo.Nodes())
	for i := range nodes {
		nodes[i] = noc.NodeID(i)
	}
	cores := sys.AttachMIPS(nodes, img)
	res := sys.RunUntil(2_000_000, sys.CoresHalted(cores))
	if got := cores[0].Console(); got != "20" {
		t.Fatalf("node 0 printed %q, want 20 (halted=%v pc=%#x)", got, cores[0].Halted(), cores[0].PC)
	}
	t.Logf("ping-pong finished in %d cycles", res.Cycles)
	sum := sys.Summary()
	if sum.PacketsDelivered != 40 {
		t.Fatalf("delivered %d packets, want 40", sum.PacketsDelivered)
	}
}

func TestCannonCorrectAndSlowerThanIdeal(t *testing.T) {
	const q, b = 2, 4
	src := workloads.CannonSource(q, b)
	img, err := mips.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}

	// Ideal single-cycle network run (trace capture side of Fig 12).
	ideal := RunMIPSIdeal(q*q, img, 5_000_000)
	if ideal.Cycles >= 5_000_000 {
		t.Fatal("ideal run did not finish")
	}
	for i, console := range ideal.Consoles {
		row, col := i/q, i%q
		want := workloads.CannonChecksum(row, col, q, b)
		got, err := strconv.ParseInt(console, 10, 64)
		if err != nil || got != want {
			t.Fatalf("core %d checksum %q, want %d", i, console, want)
		}
	}

	// Integrated core+network run on a qxq mesh.
	cfg := smallCfg()
	cfg.Topology.Width, cfg.Topology.Height = q, q
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]noc.NodeID, q*q)
	for i := range nodes {
		nodes[i] = noc.NodeID(i)
	}
	cores := sys.AttachMIPS(nodes, img)
	res := sys.RunUntil(10_000_000, sys.CoresHalted(cores))
	for i, c := range cores {
		row, col := i/q, i%q
		want := fmt.Sprint(workloads.CannonChecksum(row, col, q, b))
		if c.Console() != want {
			t.Fatalf("core %d (integrated) checksum %q, want %s", i, c.Console(), want)
		}
	}
	if res.Cycles+res.SkippedCycles < ideal.Cycles {
		t.Fatalf("integrated run (%d cycles) faster than ideal network (%d)", res.Cycles, ideal.Cycles)
	}
	t.Logf("Fig 12 shape: ideal=%d cycles, integrated=%d cycles (%.2fx)",
		ideal.Cycles, res.Cycles, float64(res.Cycles)/float64(ideal.Cycles))
}

func TestBlackScholesGather(t *testing.T) {
	src := workloads.BlackScholesSource(32, 8)
	img, err := mips.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	cfg.Topology.Width, cfg.Topology.Height = 2, 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cores := sys.AttachMIPS([]noc.NodeID{0, 1, 2, 3}, img)
	sys.RunUntil(5_000_000, sys.CoresHalted(cores))
	for i, c := range cores {
		if !c.Halted() {
			t.Fatalf("core %d did not halt (pc=%#x)", i, c.PC)
		}
	}
	if cores[0].Console() == "" {
		t.Fatal("core 0 printed nothing")
	}
	t.Logf("blackscholes total: %s", cores[0].Console())
}

func TestSharedMemoryMSI(t *testing.T) {
	// MIPS cores share memory through MSI: core 0 writes a flag+value,
	// core 1 spins on the flag then reads the value.
	src := `
main:
	li   $v0, 64
	syscall
	bnez $v0, reader
	# writer: value at 0x1000, flag at 0x2000 (different lines/homes)
	li   $t0, 0x1000
	li   $t1, 777
	sw   $t1, 0($t0)
	li   $t0, 0x2000
	li   $t1, 1
	sw   $t1, 0($t0)
	li   $v0, 10
	syscall
reader:
	li   $t0, 0x2000
spin:
	lw   $t1, 0($t0)
	beqz $t1, spin
	li   $t0, 0x1000
	lw   $a0, 0($t0)
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`
	img, err := mips.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"msi", "nuca"} {
		t.Run(proto, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Topology.Width, cfg.Topology.Height = 2, 2
			mc := *config.DefaultMemory()
			mc.Protocol = proto
			fab, err := func() (f *memoryFabric, err error) {
				sys, err := New(cfg)
				if err != nil {
					return nil, err
				}
				fab, err := sys.AttachMemory(mc)
				if err != nil {
					return nil, err
				}
				cores := sys.AttachMIPSShared([]noc.NodeID{0, 3}, img, fab, mc)
				sys.RunUntil(3_000_000, sys.CoresHalted(cores))
				if got := cores[1].Console(); got != "777" {
					t.Fatalf("reader printed %q, want 777 (halted=%v pc=%#x)",
						got, cores[1].Halted(), cores[1].PC)
				}
				return fab, nil
			}()
			if err != nil {
				t.Fatal(err)
			}
			_ = fab
		})
	}
}
