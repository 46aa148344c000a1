// Package topology builds interconnect geometries — lines, rings, 2D
// meshes and tori, and the paper's multilayer meshes (x1, x1y1, xcube
// inter-layer wiring; Fig 4) — as explicit pairwise node connections, and
// provides the coordinate arithmetic that routing-table builders need.
package topology

import (
	"fmt"

	"hornet/internal/config"
	"hornet/internal/noc"
)

// Edge is one bidirectional neighbour connection (a pair of opposing
// channels, possibly bandwidth-adaptive).
type Edge struct {
	A, B noc.NodeID
}

// Topology is an immutable interconnect geometry.
type Topology struct {
	Kind   string
	Width  int
	Height int
	Layers int

	n         int
	edges     []Edge
	neighbors [][]noc.NodeID
}

// New constructs the geometry described by cfg.
func New(cfg config.TopologyConfig) (*Topology, error) {
	w, h, l := cfg.Width, cfg.Height, cfg.Layers
	if h <= 0 {
		h = 1
	}
	if l <= 0 {
		l = 1
	}
	t := &Topology{Kind: cfg.Kind, Width: w, Height: h, Layers: l}
	// Each dimension is bounded before the product, which could overflow.
	if w > noc.MaxNodes || h > noc.MaxNodes || l > noc.MaxNodes || w*h*l > noc.MaxNodes {
		return nil, fmt.Errorf("topology: %dx%dx%d nodes exceeds FlowID limit %d", w, h, l, noc.MaxNodes)
	}
	t.n = w * h * l
	if t.n < 2 {
		return nil, fmt.Errorf("topology: need at least 2 nodes, got %d", t.n)
	}
	switch cfg.Kind {
	case config.TopoLine:
		for x := 0; x < w-1; x++ {
			t.addEdge(noc.NodeID(x), noc.NodeID(x+1))
		}
	case config.TopoRing:
		for x := 0; x < w; x++ {
			t.addEdge(noc.NodeID(x), noc.NodeID((x+1)%w))
		}
	case config.TopoMesh, config.TopoTorus:
		t.meshEdges(false)
		if cfg.Kind == config.TopoTorus {
			for y := 0; y < h; y++ {
				t.addEdge(t.NodeAt(w-1, y), t.NodeAt(0, y))
			}
			for x := 0; x < w; x++ {
				t.addEdge(t.NodeAt(x, h-1), t.NodeAt(x, 0))
			}
		}
	case config.TopoMeshX1, config.TopoMeshX1Y1, config.TopoMeshXCube:
		t.meshEdges(true)
		for layer := 0; layer < l-1; layer++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if !t.isPortal(cfg.Kind, x, y) {
						continue
					}
					a := t.NodeAtL(x, y, layer)
					b := t.NodeAtL(x, y, layer+1)
					t.addEdge(a, b)
				}
			}
		}
	default:
		return nil, fmt.Errorf("topology: unknown kind %q", cfg.Kind)
	}
	t.neighbors = make([][]noc.NodeID, t.n)
	for _, e := range t.edges {
		t.neighbors[e.A] = append(t.neighbors[e.A], e.B)
		t.neighbors[e.B] = append(t.neighbors[e.B], e.A)
	}
	return t, nil
}

// isPortal reports whether (x, y) hosts inter-layer links for the given
// multilayer variant.
func (t *Topology) isPortal(kind string, x, y int) bool {
	switch kind {
	case config.TopoMeshX1:
		return x == 0 && y == 0
	case config.TopoMeshX1Y1:
		return x == 0 || y == 0
	case config.TopoMeshXCube:
		return true
	}
	return false
}

// Portal returns the nearest inter-layer portal to (x, y) for this
// geometry (used by multilayer routing builders). For single-layer
// geometries it returns (x, y) itself.
func (t *Topology) Portal(x, y int) (px, py int) {
	switch t.Kind {
	case config.TopoMeshX1:
		return 0, 0
	case config.TopoMeshX1Y1:
		if x <= y {
			return 0, y
		}
		return x, 0
	default:
		return x, y
	}
}

func (t *Topology) meshEdges(multilayer bool) {
	layers := 1
	if multilayer {
		layers = t.Layers
	}
	for l := 0; l < layers; l++ {
		for y := 0; y < t.Height; y++ {
			for x := 0; x < t.Width; x++ {
				if x+1 < t.Width {
					t.addEdge(t.NodeAtL(x, y, l), t.NodeAtL(x+1, y, l))
				}
				if y+1 < t.Height {
					t.addEdge(t.NodeAtL(x, y, l), t.NodeAtL(x, y+1, l))
				}
			}
		}
	}
}

func (t *Topology) addEdge(a, b noc.NodeID) {
	t.edges = append(t.edges, Edge{A: a, B: b})
}

// Nodes returns the node count.
func (t *Topology) Nodes() int { return t.n }

// Edges returns all bidirectional connections.
func (t *Topology) Edges() []Edge { return t.edges }

// Neighbors returns the nodes adjacent to n.
func (t *Topology) Neighbors(n noc.NodeID) []noc.NodeID { return t.neighbors[n] }

// NodeAt returns the node at mesh coordinates (x, y) on layer 0.
func (t *Topology) NodeAt(x, y int) noc.NodeID {
	return t.NodeAtL(x, y, 0)
}

// NodeAtL returns the node at (x, y) on the given layer.
func (t *Topology) NodeAtL(x, y, layer int) noc.NodeID {
	return noc.NodeID(layer*t.Width*t.Height + y*t.Width + x)
}

// XY returns the in-layer coordinates of n.
func (t *Topology) XY(n noc.NodeID) (x, y int) {
	i := int(n) % (t.Width * t.Height)
	return i % t.Width, i / t.Width
}

// Layer returns n's layer index.
func (t *Topology) Layer(n noc.NodeID) int {
	return int(n) / (t.Width * t.Height)
}

// ManhattanDistance returns hop distance for mesh geometries (including
// the layer distance for multilayer meshes, ignoring portal detours).
func (t *Topology) ManhattanDistance(a, b noc.NodeID) int {
	ax, ay := t.XY(a)
	bx, by := t.XY(b)
	d := abs(ax-bx) + abs(ay-by)
	d += abs(t.Layer(a) - t.Layer(b))
	return d
}

// IsTorus reports whether the geometry has wraparound channels.
func (t *Topology) IsTorus() bool {
	return t.Kind == config.TopoTorus || t.Kind == config.TopoRing
}

// IsMultilayer reports whether the geometry has more than one layer.
func (t *Topology) IsMultilayer() bool { return t.Layers > 1 }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
