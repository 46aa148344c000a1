package routing

import (
	"hash/maphash"
	"math"
	"sync/atomic"

	"hornet/internal/noc"
)

// lineSet holds every distinct line of a store once. Lines and their
// entries sit in chunks that never move, and an open-addressed index of
// line numbers finds a line by its content. A line's content is its
// entries' Next, phase bit, Weight bits and linked line; linked lines are
// interned first, so comparing their pointers compares their content.
//
// Flits carry line numbers (noc.RouteLine.ID, the line number + 1) across
// threads, and a router resolves one without the store's lock (line): the
// chunk list is published whole through an atomic pointer each time it
// grows, and a number reaches a reader only in a flit, pushed after its
// line was written.
type lineSet struct {
	seed    maphash.Seed                      // set by newLineSet
	index   []uint32                          // line number + 1, 0 when empty; len 0 or a power of two, at most 3/4 full
	chunks  atomic.Pointer[[][]noc.RouteLine] // line n is chunks[n/lineChunk][n%lineChunk]
	entries []noc.RouteEntry                  // the newest entry chunk; lines own its filled prefix
	n       uint32                            // lines held
}

const (
	lineChunk  = 256  // lines per chunk (6 KB)
	entryChunk = 1024 // entries in a full-size chunk (24 KB); the first chunks are smaller
)

// entryContent is what identifies an entry within a line.
type entryContent struct {
	next   noc.NodeID
	phase2 bool
	weight uint64
	then   *noc.RouteLine
}

func contentOf(e *noc.RouteEntry) entryContent {
	return entryContent{e.Next, e.Phase2, math.Float64bits(e.Weight), e.Then}
}

func (s *lineSet) hash(es []noc.RouteEntry) uint32 {
	h := uint64(len(es))
	for i := range es {
		h = h*0x9E3779B97F4A7C15 ^ maphash.Comparable(s.seed, contentOf(&es[i]))
	}
	return uint32(h ^ h>>32)
}

func sameContent(a, b []noc.RouteEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if contentOf(&a[i]) != contentOf(&b[i]) {
			return false
		}
	}
	return true
}

func newLineSet() lineSet { return lineSet{seed: maphash.MakeSeed()} }

func (s *lineSet) at(n uint32) *noc.RouteLine {
	return &(*s.chunks.Load())[n/lineChunk][n%lineChunk]
}

// line returns the line whose ID is id, from any thread.
func (s *lineSet) line(id uint32) *noc.RouteLine { return s.at(id - 1) }

// intern returns the held line whose entries have es's content, holding a
// copy of es if there is none. es's Then links must already be interned.
func (s *lineSet) intern(es []noc.RouteEntry) *noc.RouteLine {
	if 4*(s.n+1) > 3*uint32(len(s.index)) {
		s.grow()
	}
	mask := uint32(len(s.index) - 1)
	for i := s.hash(es) & mask; ; i = (i + 1) & mask {
		slot := s.index[i]
		if slot == 0 {
			s.index[i] = s.n + 1
			return s.add(es)
		}
		if l := s.at(slot - 1); sameContent(l.Entries, es) {
			return l
		}
	}
}

// add stores a copy of es as line s.n.
func (s *lineSet) add(es []noc.RouteEntry) *noc.RouteLine {
	if s.n%lineChunk == 0 {
		// Readers hold earlier lists, whose length stops short of the
		// element append writes.
		var chunks [][]noc.RouteLine
		if p := s.chunks.Load(); p != nil {
			chunks = *p
		}
		chunks = append(chunks, make([]noc.RouteLine, lineChunk))
		s.chunks.Store(&chunks)
	}
	if len(es) > cap(s.entries)-len(s.entries) {
		size := min(max(2*cap(s.entries), 64), entryChunk)
		s.entries = make([]noc.RouteEntry, 0, max(size, len(es)))
	}
	start := len(s.entries)
	s.entries = append(s.entries, es...)
	l := s.at(s.n)
	l.Entries = s.entries[start:len(s.entries):len(s.entries)]
	s.n++
	l.ID = s.n
	return l
}

// grow doubles the index and re-places every held line.
func (s *lineSet) grow() {
	index := make([]uint32, max(64, 2*len(s.index)))
	mask := uint32(len(index) - 1)
	for _, slot := range s.index {
		if slot == 0 {
			continue
		}
		i := s.hash(s.at(slot-1).Entries) & mask
		for index[i] != 0 {
			i = (i + 1) & mask
		}
		index[i] = slot
	}
	s.index = index
}
