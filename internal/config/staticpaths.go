package config

import (
	"fmt"
	"strconv"
	"strings"

	"hornet/internal/noc"
)

// StaticPathError names a static path that routing tables cannot follow
// as written.
type StaticPathError struct {
	Path   int // index into RoutingConfig.StaticPaths
	Reason string
}

func (e *StaticPathError) Error() string {
	return fmt.Sprintf("config: static path %d %s", e.Path, e.Reason)
}

func (e *StaticPathError) ConfigField() string { return "routing/static_paths/" + strconv.Itoa(e.Path) }

// link is a directed link, or a flow's injection at its source when from
// == to: the part of a routing-table key a static path determines.
type link struct{ from, to int }

// CheckStaticPaths rejects static paths of fewer than two nodes or with a
// node outside [0, nodes), paths that stay at a node for a hop or loop
// through a link, and paths that give one arrival more next hops than a
// routing-table line holds (noc.MaxLineEntries, less one for ejection).
// Tables are addressed by <prev_node, flow> (paper §II-A2), one line per
// directed link a flow arrives by, so every crossing of a link by a flow
// shares one line: a path that crosses a link twice, or paths between the
// same endpoints that together lead back to a link, would have a flit skip
// the loop or go round it any number of times. The result is nil or a
// *StaticPathError.
func CheckStaticPaths(paths [][]int, nodes int) error {
	// A group is the paths between one pair of endpoints: one flow's
	// table. step[from] lists the links the group's paths take right after
	// arriving by from; by[{from, to}] is the first path to take that step.
	type group struct {
		src, dst int
		step     map[link][]link
		by       map[[2]link]int
	}
	var groups []*group
	index := map[link]*group{}
	for i, p := range paths {
		if len(p) < 2 {
			return &StaticPathError{i, "has fewer than 2 nodes"}
		}
		for _, n := range p {
			if n < 0 || n >= nodes {
				return &StaticPathError{i, fmt.Sprintf("references node %d outside topology", n)}
			}
		}
		g := index[link{p[0], p[len(p)-1]}]
		if g == nil {
			g = &group{src: p[0], dst: p[len(p)-1], step: map[link][]link{}, by: map[[2]link]int{}}
			index[link{g.src, g.dst}] = g
			groups = append(groups, g)
		}
		crossed := map[link]bool{}
		prev := link{p[0], p[0]}
		for j := 1; j < len(p); j++ {
			l := link{p[j-1], p[j]}
			if l.from == l.to {
				return &StaticPathError{i, fmt.Sprintf("(%s) stays at node %d", pathString(p), l.to)}
			}
			if crossed[l] {
				return &StaticPathError{i, fmt.Sprintf("(%s) crosses the link %d->%d twice", pathString(p), l.from, l.to)}
			}
			crossed[l] = true
			if _, ok := g.by[[2]link{prev, l}]; !ok {
				if len(g.step[prev]) == noc.MaxLineEntries-1 { // one entry left for ejection
					return &StaticPathError{i, fmt.Sprintf("(%s) gives node %d, arriving from %d, a next hop beyond the %d a routing-table line holds",
						pathString(p), l.from, prev.from, noc.MaxLineEntries-1)}
				}
				g.by[[2]link{prev, l}] = i
				g.step[prev] = append(g.step[prev], l)
			}
			prev = l
		}
	}
	// No path loops alone; paths between the same endpoints may loop
	// together.
	for _, g := range groups {
		const open, closed = 1, 2
		state := map[link]int{}
		var visit func(l link) error
		visit = func(l link) error {
			state[l] = open
			for _, n := range g.step[l] {
				switch state[n] {
				case open:
					i := g.by[[2]link{l, n}]
					return &StaticPathError{i, fmt.Sprintf("(%s) and the other paths from %d to %d loop through the link %d->%d",
						pathString(paths[i]), g.src, g.dst, n.from, n.to)}
				case 0:
					if err := visit(n); err != nil {
						return err
					}
				}
			}
			state[l] = closed
			return nil
		}
		if err := visit(link{g.src, g.src}); err != nil {
			return err
		}
	}
	return nil
}

// CheckStaticHops rejects a static path with a hop between nodes that
// adjacent says no link joins. The result is nil or a *StaticPathError.
func CheckStaticHops(paths [][]int, adjacent func(a, b int) bool) error {
	for i, p := range paths {
		for j := 1; j < len(p); j++ {
			if !adjacent(p[j-1], p[j]) {
				return &StaticPathError{i, fmt.Sprintf("(%s) hops from %d to %d, which no link joins", pathString(p), p[j-1], p[j])}
			}
		}
	}
	return nil
}

func pathString(p []int) string {
	s := make([]string, len(p))
	for i, n := range p {
		s[i] = strconv.Itoa(n)
	}
	return strings.Join(s, ",")
}
