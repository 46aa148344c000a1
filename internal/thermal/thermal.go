// Package thermal implements HORNET's HOTSPOT-style thermal model (paper
// §II-B, §IV-E): the die is a grid of tiles, each an RC node with a
// vertical resistance to the heat sink (held at ambient), lateral
// resistances to its four neighbours, and a thermal capacitance. The
// model supports transient integration driven by per-epoch tile power
// (temperature-versus-time traces, Fig 13) and a steady-state solve
// (per-tile temperature maps, Fig 14).
package thermal

import (
	"fmt"
	"math"

	"hornet/internal/config"
)

// Grid is the RC thermal network over a W x H tile array.
type Grid struct {
	w, h  int
	cfg   config.ThermalConfig
	temps []float64 // current tile temperatures (deg C)
}

// NewGrid creates a grid with all tiles at ambient temperature.
func NewGrid(w, h int, cfg config.ThermalConfig) (*Grid, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("thermal: invalid grid %dx%d", w, h)
	}
	if cfg.RVerticalKPerW <= 0 || cfg.RLateralKPerW <= 0 || cfg.CJPerK <= 0 {
		return nil, fmt.Errorf("thermal: resistances and capacitance must be positive")
	}
	g := &Grid{w: w, h: h, cfg: cfg, temps: make([]float64, w*h)}
	for i := range g.temps {
		g.temps[i] = cfg.AmbientC
	}
	return g, nil
}

// Temps returns the current temperature vector (live; copy to retain).
func (g *Grid) Temps() []float64 { return g.temps }

// Reset returns every tile to ambient.
func (g *Grid) Reset() {
	for i := range g.temps {
		g.temps[i] = g.cfg.AmbientC
	}
}

// Step advances the transient solution by dt seconds with the given
// per-tile power input (W). Forward Euler with internal substepping for
// stability: the substep is bounded by a quarter of the fastest RC time
// constant.
func (g *Grid) Step(powerW []float64, dt float64) {
	if len(powerW) != len(g.temps) {
		panic(fmt.Sprintf("thermal: power vector has %d entries for %d tiles", len(powerW), len(g.temps)))
	}
	// Fastest time constant: C * (Rv || Rl/4).
	gTot := 1/g.cfg.RVerticalKPerW + 4/g.cfg.RLateralKPerW
	tau := g.cfg.CJPerK / gTot
	sub := dt
	steps := 1
	if sub > tau/4 {
		steps = int(math.Ceil(dt / (tau / 4)))
		sub = dt / float64(steps)
	}
	next := make([]float64, len(g.temps))
	for s := 0; s < steps; s++ {
		for y := 0; y < g.h; y++ {
			for x := 0; x < g.w; x++ {
				i := y*g.w + x
				q := powerW[i]
				q -= (g.temps[i] - g.cfg.AmbientC) / g.cfg.RVerticalKPerW
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || nx >= g.w || ny < 0 || ny >= g.h {
						continue
					}
					q -= (g.temps[i] - g.temps[ny*g.w+nx]) / g.cfg.RLateralKPerW
				}
				next[i] = g.temps[i] + sub*q/g.cfg.CJPerK
			}
		}
		copy(g.temps, next)
	}
}

// SteadyState solves the equilibrium temperatures for a constant per-tile
// power input using Gauss-Seidel iteration, without disturbing the
// transient state. Converges because the conductance matrix is strictly
// diagonally dominant.
func (g *Grid) SteadyState(powerW []float64) []float64 {
	if len(powerW) != len(g.temps) {
		panic(fmt.Sprintf("thermal: power vector has %d entries for %d tiles", len(powerW), len(g.temps)))
	}
	t := make([]float64, len(g.temps))
	for i := range t {
		t[i] = g.cfg.AmbientC
	}
	gv := 1 / g.cfg.RVerticalKPerW
	gl := 1 / g.cfg.RLateralKPerW
	for iter := 0; iter < 10_000; iter++ {
		maxDelta := 0.0
		for y := 0; y < g.h; y++ {
			for x := 0; x < g.w; x++ {
				i := y*g.w + x
				num := powerW[i] + gv*g.cfg.AmbientC
				den := gv
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || nx >= g.w || ny < 0 || ny >= g.h {
						continue
					}
					num += gl * t[ny*g.w+nx]
					den += gl
				}
				v := num / den
				if d := math.Abs(v - t[i]); d > maxDelta {
					maxDelta = d
				}
				t[i] = v
			}
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	return t
}

// Max returns the hottest tile's temperature and index.
func (g *Grid) Max() (float64, int) {
	return maxOf(g.temps)
}

// Mean returns the average die temperature.
func (g *Grid) Mean() float64 {
	s := 0.0
	for _, v := range g.temps {
		s += v
	}
	return s / float64(len(g.temps))
}

func maxOf(v []float64) (float64, int) {
	m, mi := math.Inf(-1), -1
	for i, x := range v {
		if x > m {
			m, mi = x, i
		}
	}
	return m, mi
}

// HeatmapString renders a temperature vector as a W x H text heat map
// (one row per mesh row, values in deg C) — used by the thermal example
// and the Fig 14 harness.
func HeatmapString(temps []float64, w int) string {
	out := ""
	for i, v := range temps {
		if i > 0 && i%w == 0 {
			out += "\n"
		}
		out += fmt.Sprintf("%6.2f ", v)
	}
	return out + "\n"
}
