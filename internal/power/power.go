// Package power implements HORNET's ORION-2.0-style NoC power model
// (paper §II-B): dynamic energy charged per micro-architectural event
// (buffer read/write, crossbar traversal, arbitration, link flit
// traversal) plus a constant leakage term per router, sampled per tile at
// a fixed epoch so power can drive the thermal model and per-time-period
// reporting. Event counts come from the statistics the routers already
// collect; configuration parameters (energies, leakage, clock) come from
// config.PowerConfig.
package power

import (
	"fmt"

	"hornet/internal/config"
	"hornet/internal/snapshot"
)

// EventCounts is a snapshot of one tile's cumulative power-relevant
// events (monotone counters).
type EventCounts struct {
	BufReads     uint64
	BufWrites    uint64
	XbarTransits uint64
	LinkTransits uint64
	ArbEvents    uint64
}

// Sample is one tile's power during one epoch.
type Sample struct {
	Cycle    uint64 // epoch end cycle
	DynamicW float64
	LeakageW float64
}

// TotalW returns dynamic plus leakage power.
func (s Sample) TotalW() float64 { return s.DynamicW + s.LeakageW }

// Model accumulates per-tile, per-epoch power. Each tile samples into its
// own series from the worker stepping it (one worker at a time, handed over
// only at the barrier); readers aggregate after the run.
type Model struct {
	cfg    config.PowerConfig
	tiles  int
	series [][]Sample
	last   []EventCounts
}

// New creates a power model for the given tile count.
func New(cfg config.PowerConfig, tiles int) *Model {
	return &Model{
		cfg:    cfg,
		tiles:  tiles,
		series: make([][]Sample, tiles),
		last:   make([]EventCounts, tiles),
	}
}

// EpochCycles returns the sampling period.
func (m *Model) EpochCycles() uint64 { return uint64(m.cfg.EpochCycles) }

// Sample folds a tile's cumulative counters at an epoch boundary into a
// power sample. Must be called by the worker stepping the tile.
func (m *Model) Sample(tile int, now EventCounts, cycle uint64) {
	prev := m.last[tile]
	m.last[tile] = now
	d := EventCounts{
		BufReads:     now.BufReads - prev.BufReads,
		BufWrites:    now.BufWrites - prev.BufWrites,
		XbarTransits: now.XbarTransits - prev.XbarTransits,
		LinkTransits: now.LinkTransits - prev.LinkTransits,
		ArbEvents:    now.ArbEvents - prev.ArbEvents,
	}
	energyPJ := float64(d.BufReads)*m.cfg.BufReadPJ +
		float64(d.BufWrites)*m.cfg.BufWritePJ +
		float64(d.XbarTransits)*m.cfg.XbarPJ +
		float64(d.LinkTransits)*m.cfg.LinkPJ +
		float64(d.ArbEvents)*m.cfg.ArbPJ
	epochSec := m.EpochSeconds()
	m.series[tile] = append(m.series[tile], Sample{
		Cycle:    cycle,
		DynamicW: energyPJ * 1e-12 / epochSec,
		LeakageW: m.cfg.LeakageMW * 1e-3,
	})
}

// SaveState serializes the model: per-tile epoch baselines and the
// accumulated sample series.
func (m *Model) SaveState(w *snapshot.Writer) {
	w.Int(m.tiles)
	for t := 0; t < m.tiles; t++ {
		lc := m.last[t]
		w.Uint64(lc.BufReads)
		w.Uint64(lc.BufWrites)
		w.Uint64(lc.XbarTransits)
		w.Uint64(lc.LinkTransits)
		w.Uint64(lc.ArbEvents)
		w.Int(len(m.series[t]))
		for _, s := range m.series[t] {
			w.Uint64(s.Cycle)
			w.Float64(s.DynamicW)
			w.Float64(s.LeakageW)
		}
	}
}

// LoadState restores model state saved by SaveState.
func (m *Model) LoadState(r *snapshot.Reader) error {
	tiles := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if tiles != m.tiles {
		return &snapshot.MismatchError{Field: "power tiles",
			Got: fmt.Sprint(tiles), Want: fmt.Sprint(m.tiles)}
	}
	last := make([]EventCounts, m.tiles)
	series := make([][]Sample, m.tiles)
	for t := 0; t < m.tiles; t++ {
		last[t] = EventCounts{
			BufReads:     r.Uint64(),
			BufWrites:    r.Uint64(),
			XbarTransits: r.Uint64(),
			LinkTransits: r.Uint64(),
			ArbEvents:    r.Uint64(),
		}
		n := r.Count(1 << 26)
		for i := 0; i < n; i++ {
			series[t] = append(series[t], Sample{
				Cycle:    r.Uint64(),
				DynamicW: r.Float64(),
				LeakageW: r.Float64(),
			})
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	m.last = last
	m.series = series
	return nil
}

// EpochSeconds returns the wall-clock duration of one epoch at the
// configured clock.
func (m *Model) EpochSeconds() float64 {
	return float64(m.cfg.EpochCycles) / (m.cfg.ClockGHz * 1e9)
}

// Epochs returns the number of complete epochs sampled (minimum across
// tiles, which only differs transiently at run end).
func (m *Model) Epochs() int {
	if m.tiles == 0 {
		return 0
	}
	n := len(m.series[0])
	for _, s := range m.series[1:] {
		if len(s) < n {
			n = len(s)
		}
	}
	return n
}

// EpochPower returns the per-tile total power (W) during epoch e.
func (m *Model) EpochPower(e int) []float64 {
	out := make([]float64, m.tiles)
	for t := 0; t < m.tiles; t++ {
		if e < len(m.series[t]) {
			out[t] = m.series[t][e].TotalW()
		} else {
			out[t] = m.cfg.LeakageMW * 1e-3
		}
	}
	return out
}

// MeanPower returns each tile's time-averaged total power (W).
func (m *Model) MeanPower() []float64 {
	out := make([]float64, m.tiles)
	for t := 0; t < m.tiles; t++ {
		if len(m.series[t]) == 0 {
			out[t] = m.cfg.LeakageMW * 1e-3
			continue
		}
		sum := 0.0
		for _, s := range m.series[t] {
			sum += s.TotalW()
		}
		out[t] = sum / float64(len(m.series[t]))
	}
	return out
}

// TotalEnergyJ returns chip-wide energy over all sampled epochs.
func (m *Model) TotalEnergyJ() float64 {
	epochSec := m.EpochSeconds()
	total := 0.0
	for t := 0; t < m.tiles; t++ {
		for _, s := range m.series[t] {
			total += s.TotalW() * epochSec
		}
	}
	return total
}

// PeakPowerW returns the highest per-tile epoch power observed and the
// tile and epoch where it occurred.
func (m *Model) PeakPowerW() (w float64, tile, epoch int) {
	for t := 0; t < m.tiles; t++ {
		for e, s := range m.series[t] {
			if s.TotalW() > w {
				w, tile, epoch = s.TotalW(), t, e
			}
		}
	}
	return w, tile, epoch
}

// String summarizes the model state.
func (m *Model) String() string {
	peak, tile, _ := m.PeakPowerW()
	return fmt.Sprintf("power: tiles=%d epochs=%d peak=%.3fW@tile%d energy=%.3gJ",
		m.tiles, m.Epochs(), peak, tile, m.TotalEnergyJ())
}
