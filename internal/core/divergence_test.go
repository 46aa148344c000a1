package core

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"hornet/internal/config"
	"hornet/internal/snapshot"
)

// A first-divergence localizer: when two runs that should agree do not, it
// names the first cycle whose end state differs, and the tiles and links
// that differ on it.

// elementDigests hashes each tile's and each link's snapshot encoding (the
// bytes SnapshotBytes writes for it into secTiles or secLinks), in
// snapshot order. A tile is named "tile N"; a link "link A-B", after its
// side-0 and side-1 routers.
func elementDigests(t *testing.T, sys *System) (names []string, sums [][32]byte) {
	t.Helper()
	add := func(name string, save func(w *snapshot.Writer) error) {
		snap := snapshot.New("", sys.clock)
		if err := save(snap.Section(name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		payload, _ := snap.SectionPayload(name)
		names = append(names, name)
		sums = append(sums, sha256.Sum256(payload))
	}
	for _, tl := range sys.tiles {
		add(fmt.Sprintf("tile %d", tl.ID), func(w *snapshot.Writer) error {
			w.Uint64(tl.RNG.State())
			tl.Stats.SaveState(w)
			return tl.Router.SaveState(w, sys.clock)
		})
	}
	for _, tl := range sys.tiles {
		for _, p := range tl.Router.Ports() {
			if p.Link != nil && p.Side == 0 && p.Out != nil {
				add(fmt.Sprintf("link %d-%d", tl.ID, p.Neighbor), func(w *snapshot.Writer) error {
					p.Link.SaveState(w, sys.clock)
					return nil
				})
			}
		}
	}
	return names, sums
}

// differing lists the tiles and links whose digests differ between a and b,
// which must be the same machine at the same clock.
func differing(t *testing.T, a, b *System) []string {
	t.Helper()
	if a.Clock() != b.Clock() {
		t.Fatalf("compared at clocks %d and %d", a.Clock(), b.Clock())
	}
	namesA, sumsA := elementDigests(t, a)
	namesB, sumsB := elementDigests(t, b)
	if !slices.Equal(namesA, namesB) {
		t.Fatal("compared two different machines")
	}
	var out []string
	for i := range sumsA {
		if sumsA[i] != sumsB[i] {
			out = append(out, namesA[i])
		}
	}
	return out
}

// lockstepRun is one side of a comparison: how to build the machine and
// how to step it n cycles on from its clock.
type lockstepRun struct {
	build   func() *System
	advance func(t *testing.T, sys *System, n uint64)
}

func plainAdvance(t *testing.T, sys *System, n uint64) {
	t.Helper()
	if n == 0 {
		return
	}
	if res := sys.RunUntilResumed(n, nil); res.Err != nil || res.Cycles+res.SkippedCycles != n {
		t.Fatalf("run %d cycles from %d: %+v", n, sys.Clock(), res)
	}
}

// divergence is the first cycle whose end state differs between two runs,
// and what differs at its end.
type divergence struct {
	cycle uint64
	where []string
}

// firstDivergence steps a and b in lockstep chunks of chunk cycles up to
// total, comparing every tile and link at each chunk boundary. At the first
// boundary that disagrees it restores both runs from their snapshots at the
// last boundary that agreed and re-steps that chunk one cycle at a time. It
// returns nil if the runs agree through total.
func firstDivergence(t *testing.T, a, b lockstepRun, chunk, total uint64) *divergence {
	t.Helper()
	snap := func(sys *System) []byte {
		blob, err := sys.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	restore := func(r lockstepRun, blob []byte) *System {
		sys := r.build()
		if err := sys.RestoreBytes(blob); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sa, sb := a.build(), b.build()
	for sa.Clock() < total {
		from := sa.Clock()
		blobA, blobB := snap(sa), snap(sb)
		n := min(chunk, total-from)
		a.advance(t, sa, n)
		b.advance(t, sb, n)
		if len(differing(t, sa, sb)) == 0 {
			continue
		}
		sa, sb = restore(a, blobA), restore(b, blobB)
		for sa.Clock() < from+n {
			a.advance(t, sa, 1)
			b.advance(t, sb, 1)
			if where := differing(t, sa, sb); len(where) > 0 {
				return &divergence{cycle: sa.Clock() - 1, where: where}
			}
		}
		t.Fatalf("the runs differ after cycles %d-%d but not when those cycles are re-stepped one at a time", from, from+n-1)
	}
	return nil
}

// localizerCfg is a busy 4x4 mesh: VA contention, credit stalls and, with
// bidirectional links, grants that move every cycle.
func localizerCfg(bidirectional bool, workers int) config.Config {
	cfg := smallCfg()
	cfg.Router.Bidirectional = bidirectional
	cfg.Engine.Seed = 21
	cfg.Engine.Workers = workers
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.20}}
	return cfg
}

// TestFirstDivergenceNamesPlantedTile: one tile's generator stepped once,
// just before cycle C runs, is reported at exactly (C, that tile), though
// the chunk boundaries fall elsewhere.
func TestFirstDivergenceNamesPlantedTile(t *testing.T) {
	const plantAt, tile = 1234, 6
	build := func() *System { return buildSynthetic(t, localizerCfg(false, 1)) }
	plain := lockstepRun{build, plainAdvance}
	planted := lockstepRun{build, func(t *testing.T, sys *System, n uint64) {
		if c := sys.Clock(); c <= plantAt && plantAt < c+n {
			plainAdvance(t, sys, plantAt-c)
			sys.Tiles()[tile].RNG.Uint64()
			n -= plantAt - c
		}
		plainAdvance(t, sys, n)
	}}
	d := firstDivergence(t, plain, planted, 500, 3000)
	if d == nil {
		t.Fatal("no divergence found")
	}
	if want := []string{fmt.Sprintf("tile %d", tile)}; d.cycle != plantAt || !slices.Equal(d.where, want) {
		t.Fatalf("first divergence at cycle %d in %v, want cycle %d in %v", d.cycle, d.where, plantAt, want)
	}
}

// TestFirstDivergenceBidirectionalWorkers: a busy bidirectional mesh on 3
// engine workers agrees with 1 worker on every tile and link at every
// cycle boundary the localizer checks — the state, not just the summary,
// is independent of which side of a link commits first.
func TestFirstDivergenceBidirectionalWorkers(t *testing.T) {
	run := func(workers int) lockstepRun {
		return lockstepRun{func() *System { return buildSynthetic(t, localizerCfg(true, workers)) }, plainAdvance}
	}
	if d := firstDivergence(t, run(1), run(3), 250, 2000); d != nil {
		t.Fatalf("3 workers diverged from 1 at cycle %d in %v", d.cycle, d.where)
	}
}
