package routing

import (
	"cmp"
	"slices"

	"hornet/internal/noc"
)

// builder is the scratch one flow's table is built in: an algorithm emits
// entries into it (Algorithm.Routes), group merges them into lines, and
// intern hands the lines to the store children-first. It is a flat list
// of records, not a map. Two-phase schemes express "several routes, one
// table entry" (§II-A2) by emitting one entry several times; the copies
// merge into one entry whose weight is their sum, taken from 0 in
// emission order. A line's entries are ordered by next hop, then phase
// bit. A store reuses its builders from flow to flow, so once their
// slices have grown to the largest flow built, a build allocates nothing
// but the lines the store keeps.
type builder struct {
	recs  []record         // emitted entries; after group, one per line and next hop, ordered by line
	lines []span           // after group: the flow's lines, ordered by key
	nodes []noc.NodeID     // paths and node lists the algorithm works with (path), until the next build
	buf   []noc.RouteEntry // the line being interned
}

// record is one emitted entry: the line it belongs to, its next hop and
// phase bit, and its weight (after group, the sum of every copy's).
type record struct {
	key    EntryKey
	next   noc.NodeID
	phase2 bool
	w      float64
}

// span is one line of the flow being built: its records, recs[start:end],
// and its interned line once intern has reached it.
type span struct {
	key        EntryKey
	start, end int32
	line       *noc.RouteLine
	open       bool // its children are being interned
}

func (b *builder) add(node, prev noc.NodeID, flow noc.FlowID, next noc.NodeID, nextFlow noc.FlowID, w float64) {
	if nextFlow.Base() != flow.Base() {
		panicf("routing: flow %v renamed to %v: renaming may change only the phase bit", flow, nextFlow)
	}
	b.recs = append(b.recs, record{
		key:  EntryKey{Node: node, Prev: prev, Flow: flow},
		next: next, phase2: nextFlow.Phase2(), w: w,
	})
}

// addEject records delivery at node (Next == node means "eject here").
func (b *builder) addEject(node, prev noc.NodeID, flow noc.FlowID, w float64) {
	b.add(node, prev, flow, node, flow.Base(), w)
}

// addPath records a deterministic path (inclusive of both endpoints) for
// flow f with the given weight: forwarding entries at every hop and an
// ejection entry at the end. prev0 seeds the first key (the source itself
// for injected packets, or the upstream node when the path is a
// continuation leg).
func (b *builder) addPath(path []noc.NodeID, prev0 noc.NodeID, f noc.FlowID, w float64) {
	if len(path) == 0 {
		return
	}
	prev := prev0
	for i := 0; i < len(path)-1; i++ {
		b.add(path[i], prev, f, path[i+1], f, w)
		prev = path[i]
	}
	b.addEject(path[len(path)-1], prev, f, w)
}

// path returns the inclusive path from a to z that step (xyNext, yxNext)
// takes hop by hop within one layer. It lives in the builder's node
// scratch until the next build.
func (b *builder) path(t mesh, a, z noc.NodeID, step func(mesh, noc.NodeID, noc.NodeID) noc.NodeID) []noc.NodeID {
	start := len(b.nodes)
	b.nodes = append(b.nodes, a)
	for v := a; v != z; {
		n := step(t, v, z)
		if n == v {
			panicf("routing: path stuck at %d toward %d", v, z)
		}
		b.nodes = append(b.nodes, n)
		v = n
	}
	return b.nodes[start:len(b.nodes):len(b.nodes)]
}

// build empties the builder, has alg emit base's entries and groups them.
func (b *builder) build(alg Algorithm, base noc.FlowID) {
	b.recs, b.nodes = b.recs[:0], b.nodes[:0]
	alg.Routes(base, b)
	b.group()
}

func compareKeys(a, b EntryKey) int {
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Prev, b.Prev); c != 0 {
		return c
	}
	return cmp.Compare(a.Flow, b.Flow)
}

// compareTargets orders records by line, then next hop, then phase bit.
func compareTargets(a, b *record) int {
	if c := compareKeys(a.key, b.key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.next, b.next); c != 0 {
		return c
	}
	switch {
	case a.phase2 == b.phase2:
		return 0
	case b.phase2:
		return -1
	}
	return 1
}

// group sorts the records by line, next hop and phase bit, stably, so
// copies of one entry stay in emission order, and merges each run of
// copies into one record whose weight is the copies' weights summed from 0
// in that order. It then indexes the lines.
func (b *builder) group() {
	slices.SortStableFunc(b.recs, func(x, y record) int { return compareTargets(&x, &y) })
	out, lines := b.recs[:0], b.lines[:0]
	for i := 0; i < len(b.recs); {
		r := b.recs[i]
		r.w = 0
		for ; i < len(b.recs) && compareTargets(&b.recs[i], &r) == 0; i++ {
			r.w += b.recs[i].w
		}
		if n := len(lines); n == 0 || lines[n-1].key != r.key {
			lines = append(lines, span{key: r.key, start: int32(len(out))})
		}
		out = append(out, r) // len(out) < i: the slot is already read
		lines[len(lines)-1].end = int32(len(out))
	}
	b.recs, b.lines = out, lines
}

// intern holds every line of the grouped flow base in set and returns
// base's first-hop line, or nil if the flow has none.
func (b *builder) intern(set *lineSet, base noc.FlowID) *noc.RouteLine {
	for i := range b.lines {
		if f := b.lines[i].key.Flow; f.Base() != base {
			panicf("routing: flow %v has a table line for flow %v", base, f)
		}
		b.line(set, i)
	}
	src := base.Src()
	if i, ok := b.find(EntryKey{Node: src, Prev: src, Flow: base}); ok {
		return b.lines[i].line
	}
	return nil
}

// line returns the interned line of lines[i], interning its children
// first, so that its content — entries' Next, phase bit, Weight and linked
// line — names it completely. Every forwarding entry links the line at
// <entry.Next, this node, leaving flow>, or nil if the flow has none there
// (the router reports "no route" if a flit ever gets that far). A line met
// again while its children are interned is a cycle: no algorithm builds
// one, and config rejects the static paths that would.
func (b *builder) line(set *lineSet, i int) *noc.RouteLine {
	s := &b.lines[i]
	if s.line != nil {
		return s.line
	}
	if s.open {
		panicf("routing: flow %v: its table lines loop through <%d, %d, %v>", s.key.Flow.Base(), s.key.Node, s.key.Prev, s.key.Flow)
	}
	s.open = true
	for r := s.start; r < s.end; r++ {
		if c, ok := b.child(s.key, &b.recs[r]); ok {
			b.line(set, c)
		}
	}
	b.buf = b.buf[:0]
	for r := s.start; r < s.end; r++ {
		rec := &b.recs[r]
		e := noc.RouteEntry{Next: rec.next, Phase2: rec.phase2, Weight: rec.w}
		if c, ok := b.child(s.key, rec); ok {
			e.Then = b.lines[c].line
		}
		b.buf = append(b.buf, e)
	}
	s.line = set.intern(b.buf)
	return s.line
}

// child returns the index of the line r's next router routes by, unless r
// ejects or the flow has no line there.
func (b *builder) child(k EntryKey, r *record) (int, bool) {
	if r.next == k.Node {
		return 0, false
	}
	flow := k.Flow.Base()
	if r.phase2 {
		flow = flow.WithPhase2()
	}
	return b.find(EntryKey{Node: r.next, Prev: k.Node, Flow: flow})
}

// find returns the index of the line at k.
func (b *builder) find(k EntryKey) (int, bool) {
	return slices.BinarySearchFunc(b.lines, k, func(s span, k EntryKey) int { return compareKeys(s.key, k) })
}
