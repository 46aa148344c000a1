package core

import (
	"context"
	"fmt"

	"hornet/internal/config"
	"hornet/internal/snapshot"
	"hornet/internal/sweep"
)

// This file implements whole-system checkpointing: System.Snapshot
// captures every piece of mutable simulator state — engine clock, the
// global in-flight flit counter, per-tile RNG streams and statistics,
// router pipeline/buffer/allocation state (in-flight payloads included,
// via the snapshot payload codec registry), link arbitration state,
// synthetic-traffic generators, trace injectors, the coherent-memory
// fabric (caches, directories, memory controllers, backing stores as
// deltas against the preloaded image), MIPS cores (registers, private
// RAM, network-port DMA queues), trace-mode memory controllers, and the
// power model's epoch series — into a versioned snapshot.Snapshot
// guarded by the system's config hash. System.Restore is the exact
// inverse; the contract (enforced by internal/core's golden round-trip
// harness) is that run → Snapshot → Restore → run produces
// byte-identical results to an uninterrupted run, at any engine worker
// count. Every frontend a system can attach is serializable.

// Section names used by the system snapshot layout. Frontend sections
// (mem, mips, tracemc) are present exactly when the frontend is
// attached; Restore cross-checks presence so a snapshot can never be
// loaded into a system with different frontends.
const (
	secEngine  = "engine"
	secTiles   = "tiles"
	secLinks   = "links"
	secTraffic = "traffic"
	secTrace   = "trace"
	secPower   = "power"
	secMem     = "mem"
	secMIPS    = "mips"
	secTraceMC = "tracemc"
	// secShard was written only by a member of a cross-process shard
	// group, whose in-flight counter counted its own span's traffic; no
	// system takes such a snapshot any more, and Restore refuses one.
	secShard = "shard"
)

// Snapshot serializes the complete simulator state at the current
// clock. The system must be quiescent (between Run calls).
func (s *System) Snapshot() (*snapshot.Snapshot, error) {
	snap := snapshot.New(s.ConfigHash(), s.clock)

	w := snap.Section(secEngine)
	w.Int64(s.engine.InFlight().Load())

	w = snap.Section(secTiles)
	w.Int(len(s.tiles))
	for _, t := range s.tiles {
		w.Uint64(t.RNG.State())
		t.Stats.SaveState(w)
		if err := t.Router.SaveState(w, s.clock); err != nil {
			return nil, err
		}
	}

	// Links are shared per topology edge; each is saved once, from the
	// side-0 egress port that created it (the wiring in New assigns
	// side 0 to edge.A's router).
	w = snap.Section(secLinks)
	for _, t := range s.tiles {
		for _, p := range t.Router.Ports() {
			if p.Link != nil && p.Side == 0 && p.Out != nil {
				p.Link.SaveState(w, s.clock)
			}
		}
	}

	w = snap.Section(secTraffic)
	w.Int(len(s.generators))
	for _, g := range s.generators {
		g.SaveState(w)
	}

	w = snap.Section(secTrace)
	w.Int(len(s.injectors))
	for _, inj := range s.injectors {
		inj.SaveState(w)
	}

	w = snap.Section(secPower)
	s.Power.SaveState(w)

	if s.memFab != nil {
		if err := s.memFab.SaveState(snap.Section(secMem)); err != nil {
			return nil, err
		}
	}
	if len(s.mipsCores) > 0 {
		w = snap.Section(secMIPS)
		w.Int(len(s.mipsCores))
		for _, c := range s.mipsCores {
			if err := c.SaveState(w); err != nil {
				return nil, err
			}
		}
	}
	if len(s.traceMCs) > 0 {
		w = snap.Section(secTraceMC)
		w.Int(len(s.traceMCs))
		for _, tc := range s.traceMCs {
			tc.SaveState(w)
		}
	}

	if err := snap.WriteManifest(s.manifest(snap)); err != nil {
		return nil, err
	}
	return snap, nil
}

// manifest summarizes the snapshot for inspection tools (the
// `snapshot <file>` subcommand): attached frontends, component counts,
// and how many typed payloads ride in the encoded state.
func (s *System) manifest(snap *snapshot.Snapshot) snapshot.Manifest {
	m := snapshot.Manifest{
		Nodes:         len(s.tiles),
		Generators:    len(s.generators),
		Injectors:     len(s.injectors),
		MIPSCores:     len(s.mipsCores),
		TraceMCs:      len(s.traceMCs),
		InFlightFlits: s.engine.InFlight().Load(),
		Payloads:      snap.Payloads(),
	}
	if len(s.generators) > 0 {
		m.Frontends = append(m.Frontends, "synthetic")
	}
	if len(s.injectors) > 0 {
		m.Frontends = append(m.Frontends, "trace")
	}
	if len(s.mipsCores) > 0 {
		m.Frontends = append(m.Frontends, "mips")
	}
	if s.memFab != nil {
		m.Frontends = append(m.Frontends, "mem")
		m.MemTiles = len(s.tiles)
	}
	if len(s.traceMCs) > 0 {
		m.Frontends = append(m.Frontends, "trace-mc")
	}
	return m
}

// SaveState serializes the shared-memory fabric tile by tile: directory
// slice (with its backing-store delta), then the optional processor-side
// ports (MSI L1 or NUCA), then the memory controllers in configured
// order.
func (f *memoryFabric) SaveState(w *snapshot.Writer) error {
	for i := range f.dirs {
		f.dirs[i].SaveState(w)
		b := f.bridges[i]
		w.Bool(b.L1 != nil)
		if b.L1 != nil {
			b.L1.SaveState(w)
		}
		w.Bool(b.Nuca != nil)
		if b.Nuca != nil {
			b.Nuca.SaveState(w)
		}
	}
	for _, cn := range f.am.Controllers {
		f.mcs[cn].SaveState(w)
	}
	return nil
}

// LoadState restores fabric state saved by SaveState into this (freshly
// built, identically attached) fabric.
func (f *memoryFabric) LoadState(r *snapshot.Reader) error {
	for i := range f.dirs {
		if err := f.dirs[i].LoadState(r); err != nil {
			return err
		}
		b := f.bridges[i]
		hasL1 := r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		if hasL1 != (b.L1 != nil) {
			return &snapshot.MismatchError{Field: fmt.Sprintf("tile %d L1", i),
				Got: fmt.Sprint(hasL1), Want: fmt.Sprint(b.L1 != nil)}
		}
		if b.L1 != nil {
			if err := b.L1.LoadState(r); err != nil {
				return err
			}
		}
		hasNuca := r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		if hasNuca != (b.Nuca != nil) {
			return &snapshot.MismatchError{Field: fmt.Sprintf("tile %d NUCA port", i),
				Got: fmt.Sprint(hasNuca), Want: fmt.Sprint(b.Nuca != nil)}
		}
		if b.Nuca != nil {
			if err := b.Nuca.LoadState(r); err != nil {
				return err
			}
		}
	}
	for _, cn := range f.am.Controllers {
		if err := f.mcs[cn].LoadState(r); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotBytes serializes the system into an encoded snapshot blob.
func (s *System) SnapshotBytes() ([]byte, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap.Bytes()
}

// Restore loads a snapshot into this system, which must be freshly
// built (New plus the same Attach calls as the system that produced the
// snapshot, not yet run). The config-hash guard rejects snapshots from
// structurally different configurations with a *snapshot.MismatchError;
// inconsistent section contents yield *snapshot.CorruptError.
func (s *System) Restore(snap *snapshot.Snapshot) error {
	if s.clock != 0 {
		return fmt.Errorf("core: restore requires a freshly built system (clock is %d)", s.clock)
	}
	if err := snap.CheckConfigHash(s.ConfigHash()); err != nil {
		return err
	}
	// Frontend sections exist exactly when the frontend is attached; a
	// mismatch means the snapshot came from a system wired differently
	// (attachments are not part of the config hash).
	for _, fe := range []struct {
		section  string
		attached bool
	}{
		{secMem, s.memFab != nil},
		{secMIPS, len(s.mipsCores) > 0},
		{secTraceMC, len(s.traceMCs) > 0},
	} {
		if snap.Has(fe.section) != fe.attached {
			return &snapshot.MismatchError{Field: "frontend " + fe.section,
				Got:  fmt.Sprintf("present=%v", snap.Has(fe.section)),
				Want: fmt.Sprintf("present=%v", fe.attached)}
		}
	}

	r, err := snap.Open(secEngine)
	if err != nil {
		return err
	}
	inflight := r.Int64()
	if err := r.Close(); err != nil {
		return err
	}

	if snap.Has(secShard) {
		return &snapshot.CorruptError{Detail: fmt.Sprintf(
			"section %q: a shard member's state, which no system restores", secShard)}
	}

	r, err = snap.Open(secTiles)
	if err != nil {
		return err
	}
	if n := r.Int(); n != len(s.tiles) {
		return &snapshot.MismatchError{Field: "tiles",
			Got: fmt.Sprint(n), Want: fmt.Sprint(len(s.tiles))}
	}
	for _, t := range s.tiles {
		t.RNG.SetState(r.Uint64())
		if err := t.Stats.LoadState(r); err != nil {
			return err
		}
		if err := t.Router.LoadState(r, snap.Clock); err != nil {
			return err
		}
	}
	if err := r.Close(); err != nil {
		return err
	}

	r, err = snap.Open(secLinks)
	if err != nil {
		return err
	}
	for _, t := range s.tiles {
		for _, p := range t.Router.Ports() {
			if p.Link != nil && p.Side == 0 && p.Out != nil {
				if err := p.Link.LoadState(r); err != nil {
					return err
				}
			}
		}
	}
	if err := r.Close(); err != nil {
		return err
	}

	r, err = snap.Open(secTraffic)
	if err != nil {
		return err
	}
	if n := r.Int(); n != len(s.generators) {
		return &snapshot.MismatchError{Field: "traffic generators",
			Got: fmt.Sprint(n), Want: fmt.Sprint(len(s.generators))}
	}
	for _, g := range s.generators {
		if err := g.LoadState(r); err != nil {
			return err
		}
	}
	if err := r.Close(); err != nil {
		return err
	}

	r, err = snap.Open(secTrace)
	if err != nil {
		return err
	}
	if n := r.Int(); n != len(s.injectors) {
		return &snapshot.MismatchError{Field: "trace injectors",
			Got: fmt.Sprint(n), Want: fmt.Sprint(len(s.injectors))}
	}
	for _, inj := range s.injectors {
		if err := inj.LoadState(r); err != nil {
			return err
		}
	}
	if err := r.Close(); err != nil {
		return err
	}

	r, err = snap.Open(secPower)
	if err != nil {
		return err
	}
	if err := s.Power.LoadState(r); err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}

	if s.memFab != nil {
		r, err = snap.Open(secMem)
		if err != nil {
			return err
		}
		if err := s.memFab.LoadState(r); err != nil {
			return err
		}
		if err := r.Close(); err != nil {
			return err
		}
	}
	if len(s.mipsCores) > 0 {
		r, err = snap.Open(secMIPS)
		if err != nil {
			return err
		}
		if n := r.Int(); n != len(s.mipsCores) {
			return &snapshot.MismatchError{Field: "mips cores",
				Got: fmt.Sprint(n), Want: fmt.Sprint(len(s.mipsCores))}
		}
		for _, c := range s.mipsCores {
			if err := c.LoadState(r); err != nil {
				return err
			}
		}
		if err := r.Close(); err != nil {
			return err
		}
	}
	if len(s.traceMCs) > 0 {
		r, err = snap.Open(secTraceMC)
		if err != nil {
			return err
		}
		if n := r.Int(); n != len(s.traceMCs) {
			return &snapshot.MismatchError{Field: "trace controllers",
				Got: fmt.Sprint(n), Want: fmt.Sprint(len(s.traceMCs))}
		}
		for _, tc := range s.traceMCs {
			if err := tc.LoadState(r); err != nil {
				return err
			}
		}
		if err := r.Close(); err != nil {
			return err
		}
	}

	// Cross-check the global flit counter against the flits actually
	// resident in the restored buffers before installing anything
	// irreversible: a skew here would corrupt fast-forward decisions.
	var resident int64
	for _, t := range s.tiles {
		resident += t.Router.ResidentFlits()
	}
	if resident != inflight {
		return &snapshot.CorruptError{Detail: fmt.Sprintf(
			"in-flight counter %d does not match %d resident flits", inflight, resident)}
	}
	s.engine.InFlight().Store(inflight)
	s.clock = snap.Clock
	return nil
}

// RestoreBytes decodes an encoded snapshot blob and restores it.
func (s *System) RestoreBytes(b []byte) error {
	snap, err := snapshot.DecodeBytes(b)
	if err != nil {
		return err
	}
	return s.Restore(snap)
}

// WarmedSystem returns a system advanced past its warmup: restored from
// the shared warmup snapshot cache when one is supplied (the first run
// of a prefix group simulates the warmup and snapshots it, single-
// flight; every other run forks from the blob), or by simulating the
// warmup directly. Both paths yield bit-identical simulator state —
// the snapshot round-trip contract — so cache reuse can never change an
// output byte. A cached blob the freshly built system refuses to
// restore (corrupt beyond the container checks, or stale) is purged and
// the warmup re-simulated rather than failing the run.
//
// build constructs the (identically configured) system; cfg is the
// configuration it uses, hashed into the prefix key. stop may be nil.
func WarmedSystem(ctx context.Context, cache *sweep.SnapshotCache, cfg config.Config, warmupCycles uint64, stop func(cycle uint64) bool, build func() (*System, error)) (*System, error) {
	direct := func() (*System, error) {
		sys, err := build()
		if err != nil {
			return nil, err
		}
		sys.RunUntil(warmupCycles, stop)
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		return sys, nil
	}
	if cache == nil || warmupCycles == 0 {
		return direct()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	key := WarmupKey(cfg, warmupCycles)
	blob, hit, err := cache.Get(ctx, key, func() ([]byte, error) {
		sys, err := direct()
		if err != nil {
			return nil, err
		}
		return sys.SnapshotBytes()
	})
	if err != nil {
		return nil, err
	}
	sys, err := build()
	if err != nil {
		return nil, err
	}
	if rerr := sys.RestoreBytes(blob); rerr != nil {
		if !hit {
			// Our own just-produced snapshot failed to restore: the
			// subsystem is broken, not the cache entry. Surface it.
			return nil, rerr
		}
		cache.Drop(key)
		return direct()
	}
	return sys, nil
}

// WarmupKey is the warmup-prefix identity used by warmup-once/fork-many
// sweeps (internal/sweep.SnapshotCache): a stable hash of everything
// that shapes state evolution during the warmup — the configuration
// minus the worker count (results never depend on it) and minus the
// driver-level cycle windows — plus the warmup length itself. Runs that
// agree on this key may share one warmup snapshot; the measured phase
// after the prefix is free to differ.
func WarmupKey(cfg config.Config, warmupCycles uint64) string {
	cfg.Engine.Workers = 0
	cfg.WarmupCycles = 0
	cfg.AnalyzedCycles = 0
	return sweep.ConfigHash("warmup-prefix", cfg, warmupCycles)
}

// WarmupGroupKey is WarmupKey with the engine seed masked out: the
// grouping identity used to *derive* a shared seed for runs that should
// fork from one warmup (hornet-serve's share_warmup). The seed cannot
// participate in its own derivation.
func WarmupGroupKey(cfg config.Config, warmupCycles uint64) string {
	cfg.Engine.Seed = 0
	return WarmupKey(cfg, warmupCycles)
}

// ConfigHash returns this system's snapshot guard hash: a stable hash
// of the full configuration with the engine worker count zeroed,
// because results — and therefore state evolution — are identical at
// any worker count, while every other field (topology, router
// resources, routing, traffic, sync period, fast-forward, seed)
// changes how state evolves and must match for a restore to be
// meaningful.
func (s *System) ConfigHash() string {
	cfg := s.Config
	cfg.Engine.Workers = 0
	return sweep.ConfigHash("core/system", cfg)
}
