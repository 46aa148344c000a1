package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"hornet/internal/config"
	"hornet/internal/workloads"
)

func decodeT(t *testing.T, src string) *Scenario {
	t.Helper()
	s, ferr := Decode([]byte(src))
	if ferr != nil {
		t.Fatalf("Decode: %v", ferr)
	}
	return s
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	cases := []struct {
		name, src, path string
	}{
		{"top-level", `{"version":1,"figure":"t1"}`, "/figure"},
		{"machine", `{"version":1,"machine":{"topolgy":{}}}`, "/machine"},
		{"workload", `{"version":1,"machine":{"topology":{"kind":"mesh","width":4,"height":4}},"workload":{"kern":"pingpong"}}`, "/workload"},
		{"traffic-elem", `{"version":1,"machine":{"topology":{"kind":"mesh","width":4,"height":4}},"traffic":[{"patern":"uniform"}]}`, "/traffic/0"},
		{"sweep-elem", `{"version":1,"machine":{"topology":{"kind":"mesh","width":4,"height":4}},"sweep":[{"nam":"x"}]}`, "/sweep/0"},
		{"run", `{"version":1,"machine":{"topology":{"kind":"mesh","width":4,"height":4}},"run":{"sharding":2}}`, "/run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ferr := Decode([]byte(tc.src))
			if ferr == nil {
				t.Fatalf("Decode accepted %s", tc.src)
			}
			if ferr.Path != tc.path {
				t.Fatalf("error path = %q, want %q (%s)", ferr.Path, tc.path, ferr.Msg)
			}
		})
	}
}

func TestNormalizeErrors(t *testing.T) {
	mk := func(mut func(*Scenario)) *Scenario {
		s := &Scenario{
			Version: Version,
			Machine: Machine{Topology: config.TopologyConfig{Kind: config.TopoMesh, Width: 4, Height: 4}},
			Traffic: []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.05}},
		}
		mut(s)
		return s
	}
	cases := []struct {
		name string
		s    *Scenario
		path string
	}{
		{"bad-version", mk(func(s *Scenario) { s.Version = 2 }), "/version"},
		{"bad-name", mk(func(s *Scenario) { s.Name = "no spaces" }), "/name"},
		{"no-topology", mk(func(s *Scenario) { s.Machine.Topology = config.TopologyConfig{} }), "/machine/topology"},
		{"no-frontend", mk(func(s *Scenario) { s.Traffic = nil }), ""},
		{"both-frontends", mk(func(s *Scenario) { s.Workload = &Workload{Kernel: "pingpong"} }), ""},
		{"workload-warmup", &Scenario{
			Version:  Version,
			Machine:  Machine{Topology: config.TopologyConfig{Kind: config.TopoMesh, Width: 4, Height: 4}},
			Workload: &Workload{Kernel: "pingpong"},
			Run:      &Plan{WarmupCycles: new(int)},
		}, "/run/warmup_cycles"},
		{"workload-share-warmup", &Scenario{
			Version:  Version,
			Machine:  Machine{Topology: config.TopologyConfig{Kind: config.TopoMesh, Width: 4, Height: 4}},
			Workload: &Workload{Kernel: "pingpong"},
			Run:      &Plan{ShareWarmup: true},
		}, "/run/share_warmup"},
		{"unknown-kernel", &Scenario{
			Version:  Version,
			Machine:  Machine{Topology: config.TopologyConfig{Kind: config.TopoMesh, Width: 4, Height: 4}},
			Workload: &Workload{Kernel: "doom"},
		}, "/workload/kernel"},
		{"one-shard", mk(func(s *Scenario) { s.Run = &Plan{Shards: 1} }), "/run/shards"},
		{"bad-axis-path", mk(func(s *Scenario) {
			s.Sweep = []Axis{{Name: "x", Path: "/run/seed", Values: rawValues("1")}}
		}), "/sweep/0/path"},
		{"dup-axis", mk(func(s *Scenario) {
			s.Sweep = []Axis{
				{Name: "x", Path: "/traffic/0/injection_rate", Values: rawValues("0.1")},
				{Name: "x", Path: "/machine/router/vcs_per_port", Values: rawValues("2")},
			}
		}), "/sweep/1/name"},
		{"object-value", mk(func(s *Scenario) {
			s.Sweep = []Axis{{Name: "x", Path: "/traffic/0/injection_rate", Values: rawValues(`{"a":1}`)}}
		}), "/sweep/0/values/0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ferr := tc.s.Normalize()
			if ferr == nil {
				t.Fatal("Normalize accepted invalid scenario")
			}
			if ferr.Path != tc.path {
				t.Fatalf("error path = %q, want %q (%s)", ferr.Path, tc.path, ferr.Msg)
			}
		})
	}
}

func TestNormalizeDefaultsTrafficPlan(t *testing.T) {
	s := decodeT(t, `{
		"version": 1,
		"machine": {"topology": {"kind": "mesh", "width": 4, "height": 4}},
		"traffic": [{"pattern": "uniform", "injection_rate": 0.05}]
	}`)
	n, ferr := s.Normalize()
	if ferr != nil {
		t.Fatalf("Normalize: %v", ferr)
	}
	def := config.Default()
	if *n.Run.WarmupCycles != def.WarmupCycles || n.Run.AnalyzedCycles != def.AnalyzedCycles {
		t.Fatalf("plan windows = %d/%d, want baseline %d/%d",
			*n.Run.WarmupCycles, n.Run.AnalyzedCycles, def.WarmupCycles, def.AnalyzedCycles)
	}
	if n.Run.Seed != DefaultSeed || n.Run.SyncPeriod != 1 {
		t.Fatalf("plan seed/sync = %d/%d", n.Run.Seed, n.Run.SyncPeriod)
	}
	if n.Machine.Router.VCsPerPort != def.Router.VCsPerPort {
		t.Fatalf("router not materialized: %+v", n.Machine.Router)
	}
}

// Machine sections are overlays: a sparse router section keeps every
// unnamed field at its baseline value.
func TestMachineOverlay(t *testing.T) {
	s := decodeT(t, `{
		"version": 1,
		"machine": {
			"topology": {"kind": "mesh", "width": 4, "height": 4},
			"router": {"vcs_per_port": 8},
			"memory": {"protocol": "msi"}
		},
		"workload": {"kernel": "shared-pingpong"}
	}`)
	n, ferr := s.Normalize()
	if ferr != nil {
		t.Fatalf("Normalize: %v", ferr)
	}
	def := config.Default()
	if n.Machine.Router.VCsPerPort != 8 {
		t.Fatalf("override lost: vcs_per_port = %d", n.Machine.Router.VCsPerPort)
	}
	if n.Machine.Router.VCBufFlits != def.Router.VCBufFlits {
		t.Fatalf("baseline lost: vc_buf_flits = %d, want %d", n.Machine.Router.VCBufFlits, def.Router.VCBufFlits)
	}
	defMem := config.DefaultMemory()
	if n.Machine.Memory.Protocol != "msi" || n.Machine.Memory.LineBytes != defMem.LineBytes {
		t.Fatalf("memory overlay wrong: %+v", n.Machine.Memory)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	for _, name := range PresetNames() {
		s, _ := Preset(name)
		n1, ferr := s.Normalize()
		if ferr != nil {
			t.Fatalf("%s: Normalize: %v", name, ferr)
		}
		n2, ferr := n1.Normalize()
		if ferr != nil {
			t.Fatalf("%s: re-Normalize: %v", name, ferr)
		}
		b1, _ := Encode(n1)
		b2, _ := Encode(n2)
		if string(b1) != string(b2) {
			t.Fatalf("%s: normalization is not idempotent:\n%s\n---\n%s", name, b1, b2)
		}
	}
}

func TestCompileSweepExpansion(t *testing.T) {
	s, ok := Preset("routing-vcs-8x8")
	if !ok {
		t.Fatal("preset missing")
	}
	comp, ferr := Compile(s)
	if ferr != nil {
		t.Fatalf("Compile: %v", ferr)
	}
	wantKeys := []string{"alg-xy-vcs-2", "alg-xy-vcs-8", "alg-o1turn-vcs-2", "alg-o1turn-vcs-8"}
	if len(comp.Runs) != len(wantKeys) {
		t.Fatalf("got %d runs, want %d", len(comp.Runs), len(wantKeys))
	}
	for i, want := range wantKeys {
		r := comp.Runs[i]
		if r.Key != want {
			t.Fatalf("run %d key = %q, want %q", i, r.Key, want)
		}
		wantAlg := strings.Split(want, "-")[1]
		if r.Config.Routing.Algorithm != wantAlg {
			t.Fatalf("run %s algorithm = %q", want, r.Config.Routing.Algorithm)
		}
	}
	if comp.Runs[0].Config.Router.VCsPerPort != 2 || comp.Runs[1].Config.Router.VCsPerPort != 8 {
		t.Fatalf("vcs axis not applied: %d, %d",
			comp.Runs[0].Config.Router.VCsPerPort, comp.Runs[1].Config.Router.VCsPerPort)
	}
}

// A swept value flows through the same validation as direct input: an
// injection rate of 2.0 must be rejected even though the base document
// is valid.
func TestCompileSweepValidatesPoints(t *testing.T) {
	s, _ := Preset("uniform-load-8x8")
	s.Sweep[0].Values = rawValues("0.05", "2.0")
	if _, ferr := Compile(s); ferr == nil {
		t.Fatal("Compile accepted an out-of-range swept value")
	}
}

func TestCompileSweepKernelParams(t *testing.T) {
	s := &Scenario{
		Version:  Version,
		Machine:  Machine{Topology: config.TopologyConfig{Kind: config.TopoMesh, Width: 2, Height: 2}},
		Workload: &Workload{Kernel: "reduction"},
		Sweep: []Axis{{
			Name: "elems", Path: "/workload/params/elems", Values: rawValues("8", "32"),
		}},
	}
	comp, ferr := Compile(s)
	if ferr != nil {
		t.Fatalf("Compile: %v", ferr)
	}
	if len(comp.Runs) != 2 {
		t.Fatalf("got %d runs", len(comp.Runs))
	}
	for i, want := range []int64{8, 32} {
		if got := comp.Runs[i].Workload.Params.Get("elems", 0); got != want {
			t.Fatalf("run %d elems = %d, want %d", i, got, want)
		}
	}
}

func TestCompileDuplicateKeys(t *testing.T) {
	s, _ := Preset("uniform-load-8x8")
	s.Sweep[0].Values = rawValues("0.05", "0.05")
	_, ferr := Compile(s)
	if ferr == nil || !strings.Contains(ferr.Msg, "duplicate run key") {
		t.Fatalf("Compile = %v, want duplicate-key error", ferr)
	}
}

func TestCompileSharedKernelNeedsMemory(t *testing.T) {
	s := &Scenario{
		Version:  Version,
		Machine:  Machine{Topology: config.TopologyConfig{Kind: config.TopoMesh, Width: 4, Height: 4}},
		Workload: &Workload{Kernel: "shared-pingpong"},
	}
	_, ferr := Compile(s)
	if ferr == nil || ferr.Path != "/machine/memory" {
		t.Fatalf("Compile = %v, want /machine/memory error", ferr)
	}
	s.Workload.Kernel = "pingpong"
	s.Machine.Memory = &config.MemoryConfig{Protocol: "msi"}
	_, ferr = Compile(s)
	if ferr == nil || ferr.Path != "/machine/memory" {
		t.Fatalf("Compile = %v, want /machine/memory error", ferr)
	}
}

// A line longer than 256 bytes would alias NUCA line offsets (they travel
// in one byte); the rejection names the field, and 256 itself compiles.
func TestCompileRejectsLongLines(t *testing.T) {
	s := &Scenario{
		Version: Version,
		Machine: Machine{
			Topology: config.TopologyConfig{Kind: config.TopoMesh, Width: 4, Height: 4},
			Memory:   &config.MemoryConfig{Protocol: "nuca", LineBytes: 512},
		},
		Workload: &Workload{Kernel: "shared-pingpong"},
	}
	_, ferr := Compile(s)
	if ferr == nil || ferr.Path != "/machine/memory/line_bytes" {
		t.Fatalf("Compile = %v, want /machine/memory/line_bytes error", ferr)
	}
	s.Machine.Memory.LineBytes = config.MaxLineBytes
	if _, ferr := Compile(s); ferr != nil {
		t.Fatalf("Compile at %d-byte lines: %v", config.MaxLineBytes, ferr)
	}
}

// A kernel parameter out of its bounds is that parameter's fault; a
// kernel that does not fit the machine is the workload's.
func TestCompileKernelErrorPaths(t *testing.T) {
	cases := []struct {
		name, kernel  string
		params        workloads.Params
		width, height int
		path          string
	}{
		{"pingpong-rounds", "pingpong", workloads.Params{"rounds": 2_000_000}, 4, 4, "/workload/params/rounds"},
		{"cannon-b", "cannon", workloads.Params{"b": 65}, 2, 2, "/workload/params/b"},
		{"cannon-q", "cannon", workloads.Params{"q": 0}, 2, 2, "/workload/params/q"},
		{"cannon-grid", "cannon", nil, 4, 4, "/workload"},
		{"reduction-elems", "reduction", workloads.Params{"elems": 0}, 2, 2, "/workload/params/elems"},
		{"reduction-nodes", "reduction", nil, 3, 2, "/workload"},
		{"matmul-n", "matmul-blocked", workloads.Params{"n": 65}, 2, 2, "/workload/params/n"},
		{"matmul-b", "matmul-blocked", workloads.Params{"n": 8, "b": 3}, 2, 2, "/workload/params/b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Scenario{
				Version:  Version,
				Machine:  Machine{Topology: config.TopologyConfig{Kind: config.TopoMesh, Width: tc.width, Height: tc.height}},
				Workload: &Workload{Kernel: tc.kernel, Params: tc.params},
			}
			_, ferr := Compile(s)
			if ferr == nil || ferr.Path != tc.path {
				t.Fatalf("Compile = %v, want a %s error", ferr, tc.path)
			}
		})
	}
}

func TestPresetsAllCompile(t *testing.T) {
	for _, name := range PresetNames() {
		s, _ := Preset(name)
		comp, ferr := Compile(s)
		if ferr != nil {
			t.Fatalf("%s: Compile: %v", name, ferr)
		}
		if len(comp.Runs) == 0 {
			t.Fatalf("%s: no runs", name)
		}
		for _, r := range comp.Runs {
			if r.Workload != nil {
				if _, ok := workloads.Lookup(r.Workload.Kernel); !ok {
					t.Fatalf("%s: unknown kernel %q", name, r.Workload.Kernel)
				}
			}
		}
	}
}

func TestSetPointerErrors(t *testing.T) {
	var doc any
	if err := json.Unmarshal([]byte(`{"a": {"b": [1, 2]}}`), &doc); err != nil {
		t.Fatal(err)
	}
	if ferr := setPointer(doc, "/a/b/5", 9); ferr == nil {
		t.Fatal("accepted out-of-range array index")
	}
	if ferr := setPointer(doc, "/a/x/b", 9); ferr == nil {
		t.Fatal("accepted missing intermediate field")
	}
	if ferr := setPointer(doc, "no-slash", 9); ferr == nil {
		t.Fatal("accepted pointer without leading slash")
	}
	if ferr := setPointer(doc, "/a/b/1", 9); ferr != nil {
		t.Fatalf("rejected valid pointer: %v", ferr)
	}
}
