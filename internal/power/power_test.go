package power

import (
	"math"
	"testing"

	"hornet/internal/config"
)

func pcfg() config.PowerConfig {
	return config.PowerConfig{
		BufReadPJ: 1, BufWritePJ: 2, XbarPJ: 3, LinkPJ: 4, ArbPJ: 0.5,
		LeakageMW: 10, ClockGHz: 1, EpochCycles: 1000,
	}
}

func TestSampleComputesDeltaEnergy(t *testing.T) {
	m := New(pcfg(), 2)
	m.Sample(0, EventCounts{BufReads: 100, BufWrites: 100, XbarTransits: 100, LinkTransits: 100, ArbEvents: 100}, 1000)
	m.Sample(0, EventCounts{BufReads: 300, BufWrites: 100, XbarTransits: 100, LinkTransits: 100, ArbEvents: 100}, 2000)
	s := m.series[0]
	if len(s) != 2 {
		t.Fatalf("series length %d", len(s))
	}
	// Epoch 1: 100 events each: (1+2+3+4+0.5)*100 pJ over 1us = 1.05 mW.
	wantW := 100 * (1 + 2 + 3 + 4 + 0.5) * 1e-12 / 1e-6
	if math.Abs(s[0].DynamicW-wantW) > 1e-12 {
		t.Fatalf("epoch 0 dynamic %v, want %v", s[0].DynamicW, wantW)
	}
	// Epoch 2: only 200 extra buffer reads.
	wantW2 := 200 * 1 * 1e-12 / 1e-6
	if math.Abs(s[1].DynamicW-wantW2) > 1e-12 {
		t.Fatalf("epoch 1 dynamic %v, want %v", s[1].DynamicW, wantW2)
	}
	if s[0].LeakageW != 0.01 {
		t.Fatalf("leakage %v, want 0.01 W", s[0].LeakageW)
	}
}

func TestEpochPowerFallsBackToLeakage(t *testing.T) {
	m := New(pcfg(), 2)
	m.Sample(0, EventCounts{BufReads: 10}, 1000)
	p := m.EpochPower(0)
	if p[0] <= p[1] {
		t.Fatalf("sampled tile (%v) should exceed unsampled (%v)", p[0], p[1])
	}
	if p[1] != 0.01 {
		t.Fatalf("unsampled tile power %v, want leakage 0.01", p[1])
	}
}

func TestMeanAndPeak(t *testing.T) {
	m := New(pcfg(), 1)
	m.Sample(0, EventCounts{BufReads: 1000}, 1000)
	m.Sample(0, EventCounts{BufReads: 3000}, 2000)
	mp := m.MeanPower()
	peak, tile, epoch := m.PeakPowerW()
	if tile != 0 || epoch != 1 {
		t.Fatalf("peak at tile %d epoch %d", tile, epoch)
	}
	if !(mp[0] < peak && mp[0] > 0.01) {
		t.Fatalf("mean %v vs peak %v", mp[0], peak)
	}
}

func TestTotalEnergy(t *testing.T) {
	m := New(pcfg(), 1)
	m.Sample(0, EventCounts{}, 1000) // leakage only: 0.01 W * 1us
	e := m.TotalEnergyJ()
	if math.Abs(e-0.01*1e-6) > 1e-15 {
		t.Fatalf("energy %v", e)
	}
}

func TestEpochsIsMinimum(t *testing.T) {
	m := New(pcfg(), 2)
	m.Sample(0, EventCounts{}, 1000)
	m.Sample(0, EventCounts{}, 2000)
	m.Sample(1, EventCounts{}, 1000)
	if m.Epochs() != 1 {
		t.Fatalf("Epochs() = %d, want min = 1", m.Epochs())
	}
}
