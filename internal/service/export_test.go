package service

import (
	"sync/atomic"

	"hornet/internal/config"
	"hornet/internal/core"
)

// panicTile steps a tile by panicking.
type panicTile struct{}

func (panicTile) Tick(uint64) { panic("a tile panicked on purpose") }

func (panicTile) NextEvent(now uint64) uint64 { return now + 1 }

// PanicInNextBuild makes the next machine the service builds panic in its
// first cycle, in its last tile; the returned function restores the
// ordinary build.
func PanicInNextBuild() (restore func()) {
	var fired atomic.Bool
	newSystem = func(cfg config.Config) (*core.System, error) {
		sys, err := core.New(cfg)
		if err == nil && fired.CompareAndSwap(false, true) {
			tiles := sys.Tiles()
			tiles[len(tiles)-1].AddComponent(panicTile{})
		}
		return sys, err
	}
	return func() { newSystem = core.New }
}

// JournalCompacted exposes the journal's compaction counters to the
// external test package: the records the last compaction wrote and the
// records all compactions have written (zero without a journal).
func (s *Server) JournalCompacted() (last int, rewritten uint64) {
	if s.jrnl == nil {
		return 0, 0
	}
	return s.jrnl.Compacted()
}
