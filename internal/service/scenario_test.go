package service

import (
	"strings"
	"testing"

	"hornet/internal/config"
	scen "hornet/internal/scenario"
)

func validConfig() *config.Config {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.05}}
	cfg.WarmupCycles = 100
	cfg.AnalyzedCycles = 1_000
	return &cfg
}

func TestBuildScenarioHashIdentity(t *testing.T) {
	mk := func(mut func(*SubmitRequest)) *scenario {
		t.Helper()
		req := SubmitRequest{Config: validConfig()}
		if mut != nil {
			mut(&req)
		}
		sc, apiErr := buildScenario(req)
		if apiErr != nil {
			t.Fatalf("buildScenario: %v", apiErr)
		}
		return sc
	}
	base := mk(nil)
	if len(base.hash) != 16 {
		t.Fatalf("hash %q not 16 hex digits", base.hash)
	}

	// Execution-only knobs must not move the hash.
	sameHash := []func(*SubmitRequest){
		func(r *SubmitRequest) { r.Workers = 4 },
		func(r *SubmitRequest) { r.Config.Engine.Workers = 8 },
		func(r *SubmitRequest) { r.Config.Engine.Seed = 999 },
		func(r *SubmitRequest) { r.NoCache = true },
	}
	for i, mut := range sameHash {
		if got := mk(mut); got.hash != base.hash {
			t.Errorf("execution knob %d changed the hash: %s vs %s", i, got.hash, base.hash)
		}
	}

	// Result-determining inputs must move it.
	diffHash := []func(*SubmitRequest){
		func(r *SubmitRequest) { r.Seed = 99 },
		func(r *SubmitRequest) { r.Name = "other" },
		func(r *SubmitRequest) { r.Config.Topology.Width = 8 },
		func(r *SubmitRequest) { r.Config.Traffic[0].InjectionRate = 0.5 },
		func(r *SubmitRequest) { r.Config.AnalyzedCycles = 2_000 },
	}
	for i, mut := range diffHash {
		if got := mk(mut); got.hash == base.hash {
			t.Errorf("identity input %d did not change the hash", i)
		}
	}
}

func TestBuildScenarioFigure(t *testing.T) {
	sc, apiErr := buildScenario(SubmitRequest{Figure: "Fig8", Tiny: true})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if sc.taskKind != KindFigure || sc.fig == nil || sc.fig.Name != "8" || !sc.cacheable {
		t.Fatalf("figure scenario: %+v", sc)
	}
	// Wall-clock (serial) figures must never be cached.
	sc, apiErr = buildScenario(SubmitRequest{Figure: "6a", Tiny: true})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if sc.cacheable {
		t.Fatal("serial timing figure marked cacheable")
	}
}

func TestBuildScenarioRejects(t *testing.T) {
	// One run more than a scenario document's sweep may expand to: the
	// legacy spelling is held to the same bound, before any item is read.
	tooMany := make([]BatchItem, scen.MaxSweepRuns+1)
	cases := []struct {
		req         SubmitRequest
		code, field string
	}{
		{SubmitRequest{}, CodeInvalidRequest, "/scenario"},
		{SubmitRequest{Config: validConfig(), Batch: []BatchItem{{Key: "x", Config: *validConfig()}}}, CodeInvalidRequest, "/batch"},
		{SubmitRequest{Config: validConfig(), Workers: -1}, CodeInvalidRequest, "/workers"},
		{SubmitRequest{Name: strings.Repeat("x", 65), Config: validConfig()}, CodeInvalidRequest, "/name"},
		{SubmitRequest{Figure: "nope"}, CodeUnknownFigure, "/figure"},
		{SubmitRequest{Batch: tooMany}, CodeInvalidRequest, "/batch"},
	}
	for i, tc := range cases {
		_, apiErr := buildScenario(tc.req)
		if apiErr == nil || apiErr.Code != tc.code || apiErr.Field != tc.field {
			t.Errorf("case %d: got %v, want code %s at %s", i, apiErr, tc.code, tc.field)
		}
	}
}
