package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/workloads"
)

// frozenValidConfig reproduces the exact submission the legacy hashes
// below were captured from (pre-refactor daemon): config.Default() on a
// 4x4 mesh, one uniform source, short windows.
func frozenValidConfig() *config.Config {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.05}}
	cfg.WarmupCycles = 100
	cfg.AnalyzedCycles = 1000
	return &cfg
}

func frozenMipsConfig() config.Config {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Engine.FastForward = true
	return cfg
}

// TestFrozenLegacyHashes pins the content address of every submission
// shape, through every spelling that reaches it, to values recorded
// before seal computed them all in one place (the six original rows:
// before the scenario schema existed): whichever spelling a client
// writes, the identity earlier daemons computed — and with it every
// cached document on disk — stays addressable. Each row also pins what
// the client sees through DryRun (kind, cache key, shards, share_warmup)
// and the run keys the document will carry. Never re-record a value.
func TestFrozenLegacyHashes(t *testing.T) {
	sharedCfg := frozenMipsConfig()
	sharedCfg.Memory = config.DefaultMemory()
	reduceCfg := frozenMipsConfig()
	reduceCfg.Topology.Width, reduceCfg.Topology.Height = 2, 2
	preset := func(name string) SubmitRequest {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return SubmitRequest{Scenario: b}
	}
	two := []BatchItem{{Key: "a", Config: *frozenValidConfig()}, {Key: "b", Config: *frozenValidConfig()}}
	cases := []struct {
		label string
		req   SubmitRequest
		// kind is what the job carries on the task wire (backend.Task.Kind),
		// surface the spelling the client used (JobInfo/validate kind).
		kind, surface, name, hash string
		runKeys                   []string
		shards                    int
		shareWarmup               bool
	}{
		{"config-default", SubmitRequest{Config: frozenValidConfig()},
			KindConfig, KindConfig, "config", "793ef57694940806", []string{"config"}, 0, false},
		{"config-named-seed", SubmitRequest{Name: "frozen", Config: frozenValidConfig(), Seed: 7, ShareWarmup: true},
			KindConfig, KindConfig, "frozen", "c3a771b377e89cd9", []string{"frozen"}, 0, true},
		{"config-sharded", SubmitRequest{Config: frozenValidConfig(), Shards: 4},
			KindConfig, KindConfig, "config", "793ef57694940806", []string{"config"}, 4, false},
		{"batch", SubmitRequest{Batch: two},
			KindBatch, KindBatch, "batch", "ff634772cdb31a04", []string{"a", "b"}, 0, false},
		{"batch-share-warmup", SubmitRequest{Batch: two, Seed: 3, ShareWarmup: true},
			KindBatch, KindBatch, "batch", "2f3f4957b75f0adb", []string{"a", "b"}, 0, true},
		{"batch-of-one", SubmitRequest{Name: "solo", Batch: two[:1]},
			KindBatch, KindBatch, "solo", "1f9a2aae7565cbeb", []string{"a"}, 0, false},
		{"mips-pingpong", SubmitRequest{Seed: 9, Mips: &MipsSpec{Workload: "pingpong", Rounds: 40, Config: frozenMipsConfig()}},
			KindMips, KindMips, "mips-pingpong", "6f2fc0815c282820", []string{"mips-pingpong"}, 0, false},
		{"mips-cannon", SubmitRequest{Mips: &MipsSpec{Workload: "cannon", Q: 4, Config: frozenMipsConfig()}},
			KindMips, KindMips, "mips-cannon", "8606f584f7d4fc7a", []string{"mips-cannon"}, 0, false},
		{"mips-shared", SubmitRequest{Mips: &MipsSpec{Workload: "shared-pingpong", Rounds: 10, Config: sharedCfg}},
			KindMips, KindMips, "mips-shared-pingpong", "deedba87e0d6d9da", []string{"mips-shared-pingpong"}, 0, false},
		{"mips-registry-kernel", SubmitRequest{Mips: &MipsSpec{Workload: "reduction",
			Params: workloads.Params{"elems": 64}, Config: reduceCfg}},
			KindMips, KindMips, "mips-reduction", "34ba083e171d2687", []string{"mips-reduction"}, 0, false},

		{"preset-matmul-ring-8", preset("matmul-ring-8"), KindMips, KindScenario,
			"matmul-ring-8", "5f62c2a17aff48ce", []string{"matmul-ring-8"}, 0, false},
		{"preset-pingpong-8x8", preset("pingpong-8x8"), KindMips, KindScenario,
			"pingpong-8x8", "0d532d2102320976", []string{"pingpong-8x8"}, 0, false},
		{"preset-reduction-tree-4x4", preset("reduction-tree-4x4"), KindMips, KindScenario,
			"reduction-tree-4x4", "e0e8ebd39f2bb3c6", []string{"reduction-tree-4x4"}, 0, false},
		{"preset-routing-vcs-8x8", preset("routing-vcs-8x8"), KindBatch, KindScenario, "routing-vcs-8x8", "5d4744780ae5ac75",
			[]string{"alg-xy-vcs-2", "alg-xy-vcs-8", "alg-o1turn-vcs-2", "alg-o1turn-vcs-8"}, 0, false},
		{"preset-shared-pingpong-msi", preset("shared-pingpong-msi"), KindMips, KindScenario,
			"shared-pingpong-msi", "c3be8fbff6b051e7", []string{"shared-pingpong-msi"}, 0, false},
		{"preset-uniform-load-8x8", preset("uniform-load-8x8"), KindBatch, KindScenario, "uniform-load-8x8", "920dface75d7920f",
			[]string{"rate-0.02", "rate-0.05", "rate-0.1"}, 0, false},
		{"workload-sweep", scenarioJSON(t, `{
			"version": 1,
			"name": "reduce-sweep",
			"machine": {"topology": {"kind": "mesh", "width": 2, "height": 2}},
			"workload": {"kernel": "reduction"},
			"run": {"fast_forward": true},
			"sweep": [{"name": "elems", "path": "/workload/params/elems", "values": [8, 64]}]
		}`), KindBatch, KindScenario, "reduce-sweep", "73a15f6e6fe00faa", []string{"elems-8", "elems-64"}, 0, false},

		{"figure-t1", SubmitRequest{Figure: "t1", Tiny: true},
			KindFigure, KindFigure, "t1", "df93617e0a027b97", nil, 0, false},
		{"figure-8-seeded", SubmitRequest{Figure: "Fig8", Tiny: true, Seed: 11},
			KindFigure, KindFigure, "8", "a289b75683cfeb38", nil, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			sc, apiErr := buildScenario(tc.req)
			if apiErr != nil {
				t.Fatalf("buildScenario: %v", apiErr)
			}
			if sc.taskKind != tc.kind || sc.name != tc.name || sc.hash != tc.hash {
				t.Errorf("got %s/%s/%s, want %s/%s/%s",
					sc.taskKind, sc.name, sc.hash, tc.kind, tc.name, tc.hash)
			}
			resp, apiErr := DryRun(tc.req)
			if apiErr != nil {
				t.Fatalf("DryRun: %v", apiErr)
			}
			if resp.Kind != tc.surface || resp.CacheKey != tc.name+"-"+tc.hash ||
				resp.Shards != tc.shards || resp.ShareWarmup != tc.shareWarmup {
				t.Errorf("client sees kind=%s cache_key=%s shards=%d share_warmup=%v, want %s %s-%s %d %v",
					resp.Kind, resp.CacheKey, resp.Shards, resp.ShareWarmup,
					tc.surface, tc.name, tc.hash, tc.shards, tc.shareWarmup)
			}
			if resp.RunsTotal != len(tc.runKeys) || !slices.Equal(resp.RunKeys, tc.runKeys) {
				t.Errorf("runs = %d %q, want %q", resp.RunsTotal, resp.RunKeys, tc.runKeys)
			}
		})
	}
}

// scenarioJSON marshals a scenario-request body for tests.
func scenarioJSON(t *testing.T, doc string) SubmitRequest {
	t.Helper()
	var raw json.RawMessage = []byte(doc)
	return SubmitRequest{Scenario: raw}
}

// TestScenarioMipsLegacyIdentity is the tentpole acceptance check: a
// declarative scenario expressing the legacy mips ping-pong job must
// compile to the SAME cache identity — the frozen pre-refactor hash —
// and produce a byte-identical result document, while reporting kind
// "scenario" to clients.
func TestScenarioMipsLegacyIdentity(t *testing.T) {
	legacy := SubmitRequest{Seed: 9, Mips: &MipsSpec{Workload: "pingpong", Rounds: 40, Config: frozenMipsConfig()}}
	scReq := scenarioJSON(t, `{
		"version": 1,
		"machine": {"topology": {"kind": "mesh", "width": 4, "height": 4}},
		"workload": {"kernel": "pingpong", "params": {"rounds": 40}},
		"run": {"fast_forward": true, "seed": 9}
	}`)

	scLegacy, apiErr := buildScenario(legacy)
	if apiErr != nil {
		t.Fatalf("legacy buildScenario: %v", apiErr)
	}
	scScen, apiErr := buildScenario(scReq)
	if apiErr != nil {
		t.Fatalf("scenario buildScenario: %v", apiErr)
	}
	if scScen.hash != scLegacy.hash || scScen.name != scLegacy.name {
		t.Fatalf("scenario identity %s/%s != legacy %s/%s",
			scScen.name, scScen.hash, scLegacy.name, scLegacy.hash)
	}
	if scScen.hash != "6f2fc0815c282820" {
		t.Fatalf("hash %s is not the frozen pre-refactor identity", scScen.hash)
	}
	if scScen.taskKind != KindMips || scScen.surface != KindScenario {
		t.Fatalf("kind/surface = %s/%s, want %s/%s", scScen.taskKind, scScen.surface, KindMips, KindScenario)
	}

	docLegacy, hashLegacy := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, legacy)
	docScen, hashScen := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, scReq)
	if hashScen != hashLegacy {
		t.Fatalf("job hashes diverge: %s vs %s", hashScen, hashLegacy)
	}
	if !bytes.Equal(docScen, docLegacy) {
		t.Fatalf("scenario document differs from legacy document:\n legacy: %s\n scenario: %s", docLegacy, docScen)
	}
}

// TestScenarioCoalescesWithLegacy: because the identities match, a
// scenario submission must hit the result cache a legacy submission
// populated (one daemon, two surfaces, one cached document).
func TestScenarioCoalescesWithLegacy(t *testing.T) {
	srv := mustServer(t, Options{MaxJobs: 1, Budget: 2})
	defer srv.Close()
	legacy := SubmitRequest{Seed: 9, Mips: &MipsSpec{Workload: "pingpong", Rounds: 40, Config: frozenMipsConfig()}}
	j1 := submitDirect(t, srv, legacy)
	info1 := waitDone(t, j1, 120*time.Second)
	if info1.State != StateDone {
		t.Fatalf("legacy job: %s (%s)", info1.State, info1.Error)
	}
	misses := srv.results.Misses()

	scReq := scenarioJSON(t, `{
		"version": 1,
		"machine": {"topology": {"kind": "mesh", "width": 4, "height": 4}},
		"workload": {"kernel": "pingpong", "params": {"rounds": 40}},
		"run": {"fast_forward": true, "seed": 9}
	}`)
	j2 := submitDirect(t, srv, scReq)
	info2 := waitDone(t, j2, 120*time.Second)
	if info2.State != StateDone {
		t.Fatalf("scenario job: %s (%s)", info2.State, info2.Error)
	}
	if srv.results.Misses() != misses {
		t.Fatalf("scenario submission missed the cache (misses %d -> %d); identities must coalesce",
			misses, srv.results.Misses())
	}
	b1, _ := j1.Result()
	b2, _ := j2.Result()
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached scenario document differs from legacy document")
	}
}

// newKernelScenario is the second acceptance shape: a registry kernel
// the legacy API never had (matmul-blocked), on a topology no legacy
// mips job used (a ring), parameterized to run long enough to
// checkpoint. run.shards is set by the callers that shard it.
func newKernelScenario(shards int) string {
	doc := `{
		"version": 1,
		"name": "matmul-ring",
		"machine": {"topology": {"kind": "ring", "width": 8, "height": 1}},
		"workload": {"kernel": "matmul-blocked", "params": {"n": 16, "b": 4}},
		"run": {"fast_forward": true%s}
	}`
	extra := ""
	if shards > 0 {
		extra = fmt.Sprintf(`, "shards": %d`, shards)
	}
	return fmt.Sprintf(doc, extra)
}

// TestScenarioNewKernelShardedByteIdentity: the new-workload scenario
// runs end-to-end unsharded and with run.shards 2, hashing identically
// (sharding is an execution knob) and emitting identical bytes.
func TestScenarioNewKernelShardedByteIdentity(t *testing.T) {
	single, hash1 := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, scenarioJSON(t, newKernelScenario(0)))
	sharded, hash2 := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, scenarioJSON(t, newKernelScenario(2)))
	if hash1 != hash2 {
		t.Fatalf("sharded scenario hashed differently: %s vs %s", hash2, hash1)
	}
	if !bytes.Equal(single, sharded) {
		t.Fatalf("2-way sharded scenario document differs from single-engine run")
	}
}

// TestScenarioCheckpointResume is the killed-daemon drill for a
// declarative scenario: daemon A autosaves the matmul run and dies
// mid-flight; daemon B with the same checkpoint directory receives the
// identical scenario, resumes from the snapshot instead of cycle 0,
// and still produces the clean run's exact bytes.
func TestScenarioCheckpointResume(t *testing.T) {
	clean, _ := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, scenarioJSON(t, newKernelScenario(0)))

	ckptDir := t.TempDir()
	srvA := mustServer(t, Options{MaxJobs: 1, Budget: 2, CheckpointDir: ckptDir, CheckpointEvery: 500})
	jA := submitDirect(t, srvA, scenarioJSON(t, newKernelScenario(0)))
	deadline := time.Now().Add(60 * time.Second)
	for jA.Info().Checkpoints < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint written; job state %+v", jA.Info())
		}
		if jA.Info().Terminal() {
			t.Skip("job finished before a checkpoint could be observed; workload too fast on this machine")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srvA.Close()

	srvB := mustServer(t, Options{MaxJobs: 1, Budget: 2, CheckpointDir: ckptDir, CheckpointEvery: 500})
	defer srvB.Close()
	jB := submitDirect(t, srvB, scenarioJSON(t, newKernelScenario(0)))
	info := waitDone(t, jB, 120*time.Second)
	if info.State != StateDone {
		t.Fatalf("resumed job: %s (%s)", info.State, info.Error)
	}
	if srvB.env.counters.runsResumed.Load() == 0 {
		t.Fatal("daemon B never resumed from the checkpoint")
	}
	b, _ := jB.Result()
	if !bytes.Equal(b, clean) {
		t.Fatalf("resumed scenario document differs from clean run:\n clean: %s\n resumed: %s", clean, b)
	}
}

// TestScenarioRequestLevelKnobsRejected: scenario documents carry their
// own name/seed/shards/share_warmup; the request-level fields must be
// rejected with the field path that names the offender.
func TestScenarioRequestLevelKnobsRejected(t *testing.T) {
	doc := `{"version":1,"machine":{"topology":{"kind":"mesh","width":4,"height":4}},"traffic":[{"pattern":"uniform","injection_rate":0.05}]}`
	cases := []struct {
		label, field string
		mut          func(*SubmitRequest)
	}{
		{"name", "/name", func(r *SubmitRequest) { r.Name = "x" }},
		{"seed", "/seed", func(r *SubmitRequest) { r.Seed = 5 }},
		{"shards", "/shards", func(r *SubmitRequest) { r.Shards = 2 }},
		{"share-warmup", "/share_warmup", func(r *SubmitRequest) { r.ShareWarmup = true }},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			req := scenarioJSON(t, doc)
			tc.mut(&req)
			_, apiErr := buildScenario(req)
			if apiErr == nil {
				t.Fatal("request-level knob accepted alongside a scenario document")
			}
			if apiErr.Field != tc.field {
				t.Fatalf("error field = %q, want %q (%s)", apiErr.Field, tc.field, apiErr.Message)
			}
		})
	}
}

// TestScenarioErrorFieldPaths: every structured rejection names the
// input it is about — scenario documents with a /scenario-prefixed JSON
// pointer and the invalid_scenario code, the legacy spellings with a
// pointer into the request body. Rows with no code are neighbours of a
// rejection that must be accepted.
func TestScenarioErrorFieldPaths(t *testing.T) {
	mesh4 := `"machine":{"topology":{"kind":"mesh","width":4,"height":4}}`
	uniform := `"traffic":[{"pattern":"uniform","injection_rate":0.05}]`
	doc := func(body string) SubmitRequest { return scenarioJSON(t, `{"version":1,`+body+`}`) }
	cfgWith := func(edit func(*config.Config)) *config.Config {
		cfg := frozenValidConfig()
		edit(cfg)
		return cfg
	}
	batch := func(items ...BatchItem) SubmitRequest { return SubmitRequest{Batch: items} }
	cases := []struct {
		label       string
		req         SubmitRequest
		code, field string
	}{
		{"bad-version", scenarioJSON(t, `{"version": 9}`), CodeInvalidScenario, "/scenario/version"},
		{"unknown-field", doc(`"figure":"t1"`), CodeInvalidScenario, "/scenario/figure"},
		{"no-topology", doc(`"workload":{"kernel":"pingpong"}`), CodeInvalidScenario, "/scenario/machine/topology"},
		{"unknown-kernel", doc(mesh4 + `,"workload":{"kernel":"doom"}`), CodeInvalidScenario, "/scenario/workload/kernel"},
		{"kernel-param-bound", doc(mesh4 + `,"workload":{"kernel":"pingpong","params":{"rounds":2000000}}`),
			CodeInvalidScenario, "/scenario/workload/params/rounds"},
		{"kernel-param-bound-cannon", doc(`"machine":{"topology":{"kind":"mesh","width":2,"height":2}},"workload":{"kernel":"cannon","params":{"b":65}}`),
			CodeInvalidScenario, "/scenario/workload/params/b"},
		{"bad-shards", doc(mesh4 + `,` + uniform + `,"run":{"shards":1}`), CodeInvalidScenario, "/scenario/run/shards"},
		{"kernel-param-bound-reduction", doc(`"machine":{"topology":{"kind":"mesh","width":2,"height":2}},"workload":{"kernel":"reduction","params":{"elems":0}}`),
			CodeInvalidScenario, "/scenario/workload/params/elems"},
		{"kernel-param-bound-matmul", doc(mesh4 + `,"workload":{"kernel":"matmul-blocked","params":{"n":65}}`),
			CodeInvalidScenario, "/scenario/workload/params/n"},
		{"kernel-misfit-machine", doc(`"machine":{"topology":{"kind":"mesh","width":3,"height":2}},"workload":{"kernel":"reduction"}`),
			CodeInvalidScenario, "/scenario/workload"},
		{"kernel-needs-memory", doc(mesh4 + `,"workload":{"kernel":"shared-pingpong"}`), CodeInvalidScenario, "/scenario/machine/memory"},
		// Accepted (no code): bidirectional links shard like fixed ones.
		{"doc-shards-bidirectional", doc(`"machine":{"topology":{"kind":"mesh","width":4,"height":4},"router":{"bidirectional":true}},` +
			uniform + `,"run":{"shards":2}`), "", ""},

		// A router's ingress state grows with its geometry: past the bounds
		// a build would ask for more memory than any host has.
		{"router-buffer-bound", doc(`"machine":{"topology":{"kind":"mesh","width":4,"height":4},"router":{"vc_buf_flits":1073741824}},` + uniform),
			CodeInvalidScenario, "/scenario/machine/router/vc_buf_flits"},
		{"router-vcs-bound", doc(`"machine":{"topology":{"kind":"mesh","width":4,"height":4},"router":{"vcs_per_port":65}},` + uniform),
			CodeInvalidScenario, "/scenario/machine/router/vcs_per_port"},
		{"router-inj-vcs-bound", doc(`"machine":{"topology":{"kind":"mesh","width":4,"height":4},"router":{"inj_vcs":65}},` + uniform),
			CodeInvalidScenario, "/scenario/machine/router/inj_vcs"},
		{"router-inj-buffer-bound", doc(`"machine":{"topology":{"kind":"mesh","width":4,"height":4},"router":{"inj_buf_flits":1025}},` + uniform),
			CodeInvalidScenario, "/scenario/machine/router/inj_buf_flits"},
		{"router-at-bounds", doc(`"machine":{"topology":{"kind":"mesh","width":4,"height":4},"router":{"vcs_per_port":64,"vc_buf_flits":1024,"inj_vcs":64,"inj_buf_flits":1024}},` + uniform),
			"", ""},
		{"config-router-bound", SubmitRequest{Config: cfgWith(func(c *config.Config) { c.Router.VCBufFlits = 1 << 30 })},
			CodeInvalidConfig, "/config/router/vc_buf_flits"},
		// Every field in range, but the machine's slots past config.MaxMachineSlots.
		{"router-machine-bound", doc(`"machine":{"topology":{"kind":"mesh","width":8,"height":8},"router":{"vcs_per_port":64,"vc_buf_flits":1024}},` + uniform),
			CodeInvalidScenario, "/scenario/machine/router/vc_buf_flits"},
		{"router-machine-injection-bound", doc(`"machine":{"topology":{"kind":"mesh","width":8,"height":8},"router":{"inj_vcs":64,"inj_buf_flits":1024}},` + uniform),
			CodeInvalidScenario, "/scenario/machine/router/inj_buf_flits"},
		{"config-machine-bound", SubmitRequest{Config: cfgWith(func(c *config.Config) {
			c.Topology = config.TopologyConfig{Kind: config.TopoMesh, Width: 8, Height: 8}
			c.Router.VCsPerPort, c.Router.VCBufFlits = 64, 1024
		})}, CodeInvalidConfig, "/config/router/vc_buf_flits"},

		{"mips-param-bound", SubmitRequest{Mips: &MipsSpec{Workload: "reduction", Params: workloads.Params{"elems": 0},
			Config: frozenMipsConfig()}}, CodeInvalidRequest, "/mips/params/elems"},
		{"mips-frozen-param-bound", SubmitRequest{Mips: &MipsSpec{Workload: "pingpong", Rounds: 2_000_000,
			Config: frozenMipsConfig()}}, CodeInvalidRequest, "/mips/rounds"},
		{"mips-misfit-machine", SubmitRequest{Mips: &MipsSpec{Workload: "cannon", Config: frozenMipsConfig()}},
			CodeInvalidConfig, "/mips/config"},
		{"mips-unknown-kernel", SubmitRequest{Mips: &MipsSpec{Workload: "doom", Config: frozenMipsConfig()}},
			CodeInvalidRequest, "/mips/workload"},

		{"nothing-set", SubmitRequest{}, CodeInvalidRequest, "/scenario"},
		{"two-set", SubmitRequest{Config: frozenValidConfig(), Figure: "t1"}, CodeInvalidRequest, "/figure"},

		{"shards-one", SubmitRequest{Config: frozenValidConfig(), Shards: 1}, CodeInvalidRequest, "/shards"},
		{"shards-batch", SubmitRequest{Shards: 2, Batch: []BatchItem{{Key: "a", Config: *frozenValidConfig()}}},
			CodeInvalidRequest, "/shards"},
		{"shards-share-warmup", SubmitRequest{Config: frozenValidConfig(), Shards: 2, ShareWarmup: true},
			CodeInvalidRequest, "/shards"},
		{"shards-sync-period", SubmitRequest{Shards: 2,
			Config: cfgWith(func(c *config.Config) { c.Engine.SyncPeriod = 5 })}, CodeInvalidRequest, "/shards"},
		{"shards-over-nodes", SubmitRequest{Config: frozenValidConfig(), Shards: 17}, CodeInvalidRequest, "/shards"},
		{"shards-bidirectional", SubmitRequest{Shards: 2,
			Config: cfgWith(func(c *config.Config) { c.Router.Bidirectional = true })}, "", ""},
		{"doc-shards-over-nodes", doc(mesh4 + `,` + uniform + `,"run":{"shards":17}`),
			CodeInvalidRequest, "/scenario/run/shards"},

		{"config-invalid", SubmitRequest{Config: cfgWith(func(c *config.Config) { c.Topology.Width = 0 })},
			CodeInvalidConfig, "/config"},
		{"config-no-traffic", SubmitRequest{Config: cfgWith(func(c *config.Config) { c.Traffic = nil })},
			CodeInvalidConfig, "/config/traffic"},
		{"config-no-window", SubmitRequest{Config: cfgWith(func(c *config.Config) { c.AnalyzedCycles = 0 })},
			CodeInvalidConfig, "/config/analyzed_cycles"},
		{"config-negative-warmup", SubmitRequest{Config: cfgWith(func(c *config.Config) { c.WarmupCycles = -1 })},
			CodeInvalidConfig, "/config/warmup_cycles"},

		{"batch-bad-key", batch(BatchItem{Key: "no spaces", Config: *frozenValidConfig()}),
			CodeInvalidRequest, "/batch/0/key"},
		{"batch-duplicate-key", batch(BatchItem{Key: "a", Config: *frozenValidConfig()},
			BatchItem{Key: "a", Config: *frozenValidConfig()}), CodeInvalidRequest, "/batch/1/key"},
		{"batch-no-traffic", batch(BatchItem{Key: "a", Config: *frozenValidConfig()},
			BatchItem{Key: "b", Config: *cfgWith(func(c *config.Config) { c.Traffic = nil })}),
			CodeInvalidConfig, "/batch/1/config/traffic"},

		{"figure-unknown", SubmitRequest{Figure: "fig-nope"}, CodeUnknownFigure, "/figure"},
		{"figure-tiny-and-full", SubmitRequest{Figure: "t1", Tiny: true, Full: true}, CodeInvalidRequest, "/full"},
		{"figure-named", SubmitRequest{Figure: "t1", Name: "mine"}, CodeInvalidRequest, "/name"},
		{"figure-share-warmup", SubmitRequest{Figure: "t1", ShareWarmup: true}, CodeInvalidRequest, "/share_warmup"},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			_, apiErr := buildScenario(tc.req)
			if tc.code == "" {
				if apiErr != nil {
					t.Fatalf("valid submission rejected with %s at %q (%s)", apiErr.Code, apiErr.Field, apiErr.Message)
				}
				return
			}
			if apiErr == nil {
				t.Fatal("invalid submission accepted")
			}
			if apiErr.Code != tc.code {
				t.Fatalf("code = %s, want %s (%s)", apiErr.Code, tc.code, apiErr.Message)
			}
			if apiErr.Field != tc.field {
				t.Fatalf("field = %q, want %q (%s)", apiErr.Field, tc.field, apiErr.Message)
			}
		})
	}
}

// TestDryRunRejectsLongPackets: a flit counts its packet's length in 16
// bits, so a longer packet — as a traffic source's own length, as the
// machine's default, or as a swept value — is rejected at the field that
// set it, and the longest countable one is accepted.
func TestDryRunRejectsLongPackets(t *testing.T) {
	mesh4 := `"machine":{"topology":{"kind":"mesh","width":4,"height":4}%s}`
	doc := func(machine, traffic, rest string) SubmitRequest {
		return scenarioJSON(t, `{"version":1,`+fmt.Sprintf(mesh4, machine)+
			`,"traffic":[{"pattern":"uniform","injection_rate":0.05`+traffic+`}]`+rest+`}`)
	}
	for _, tc := range []struct {
		label string
		req   SubmitRequest
		field string
	}{
		{"traffic", doc("", `,"packet_flits":70000`, ""), "/scenario/traffic/0/packet_flits"},
		{"machine", doc(`,"avg_packet_flits":1000000000`, "", ""), "/scenario/machine/avg_packet_flits"},
		{"swept", doc("", "", `,"sweep":[{"name":"len","path":"/traffic/0/packet_flits","values":[8,65536]}]`),
			"/scenario/traffic/0/packet_flits"},
	} {
		t.Run(tc.label, func(t *testing.T) {
			_, apiErr := DryRun(tc.req)
			if apiErr == nil {
				t.Fatal("DryRun accepted a packet no flit can count")
			}
			if apiErr.Code != CodeInvalidScenario || apiErr.Field != tc.field {
				t.Fatalf("got %s at %q, want %s at %q (%s)", apiErr.Code, apiErr.Field, CodeInvalidScenario, tc.field, apiErr.Message)
			}
		})
	}
	if _, apiErr := DryRun(doc(`,"avg_packet_flits":65535`, `,"packet_flits":65535`, "")); apiErr != nil {
		t.Fatalf("DryRun at 65535 flits: %v", apiErr)
	}
}

// TestDryRunRejectsLoopingStaticPaths: a static path that crosses a link
// twice, or paths between the same endpoints that together lead back to
// a link, cannot be followed by tables keyed by <prev, flow>, so they are
// rejected at the path, naming it and the link — before any flow of the
// traffic is found without a path.
func TestDryRunRejectsLoopingStaticPaths(t *testing.T) {
	doc := func(paths string) SubmitRequest {
		return scenarioJSON(t, `{"version":1,"machine":{"topology":{"kind":"mesh","width":4,"height":4},`+
			`"routing":{"algorithm":"static","static_paths":`+paths+`}},`+
			`"traffic":[{"pattern":"uniform","injection_rate":0.05}]}`)
	}
	for _, tc := range []struct {
		label, paths, msg string
	}{
		{"alone", `[[0,1,2],[0,1,0,1,2]]`, "(0,1,0,1,2) crosses the link 0->1 twice"},
		{"together", `[[0,1,5,1,2,6],[0,4,5,1,5,6]]`, "(0,4,5,1,5,6) and the other paths from 0 to 6 loop through the link 1->5"},
	} {
		t.Run(tc.label, func(t *testing.T) {
			_, apiErr := DryRun(doc(tc.paths))
			if apiErr == nil {
				t.Fatal("DryRun accepted looping static paths")
			}
			if apiErr.Code != CodeInvalidScenario || apiErr.Field != "/scenario/machine/routing/static_paths/1" ||
				!strings.Contains(apiErr.Message, tc.msg) {
				t.Fatalf("got %s at %q: %s", apiErr.Code, apiErr.Field, apiErr.Message)
			}
		})
	}
	// Paths that only share a link, beside an x-first path for every other
	// pair, so that each flow of the uniform traffic has a path.
	paths := [][]int{{0, 1, 2}, {0, 1, 5, 6, 2}}
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst || src == 0 && dst == 2 {
				continue
			}
			p := []int{src}
			for v := src; v != dst; p = append(p, v) {
				switch {
				case v%4 < dst%4:
					v++
				case v%4 > dst%4:
					v--
				case v < dst:
					v += 4
				default:
					v -= 4
				}
			}
			paths = append(paths, p)
		}
	}
	b, err := json.Marshal(paths)
	if err != nil {
		t.Fatal(err)
	}
	if _, apiErr := DryRun(doc(string(b))); apiErr != nil {
		t.Fatalf("DryRun of paths that only share a link: %v", apiErr)
	}
}

// TestWorkloadSpellingParity: every registered kernel, written as a
// scenario document and as the mips request's wire form of the same run,
// binds to one run spec and one hash; and each of its parameters out of
// range is named by both spellings — the scenario under
// /scenario/workload/params, the mips request at the field it wrote.
func TestWorkloadSpellingParity(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			k, _ := workloads.Lookup(name)
			cfg := config.Default()
			cfg.Topology.Width, cfg.Topology.Height = 2, 2
			machine := `{"topology":{"kind":"mesh","width":2,"height":2}}`
			if k.Shared {
				cfg.Memory = config.DefaultMemory()
				machine = `{"topology":{"kind":"mesh","width":2,"height":2},"memory":{}}`
			}
			viaDoc := func(p workloads.Params) SubmitRequest {
				params, _ := json.Marshal(p)
				return scenarioJSON(t, fmt.Sprintf(`{"version":1,"machine":%s,"workload":{"kernel":%q,"params":%s}}`,
					machine, name, params))
			}
			viaMips := func(f workloads.Frozen, p workloads.Params) SubmitRequest {
				return SubmitRequest{Mips: &MipsSpec{Workload: name, Rounds: f.Rounds, Q: f.Q, B: f.B, Params: p, Config: cfg}}
			}

			doc, apiErr := buildScenario(viaDoc(k.Defaults))
			if apiErr != nil {
				t.Fatalf("scenario spelling: %v", apiErr)
			}
			bound := doc.runs[0].work
			frozen, params := bound.Wire()
			mips, apiErr := buildScenario(viaMips(frozen, params))
			if apiErr != nil {
				t.Fatalf("mips spelling: %v", apiErr)
			}
			if mips.hash != doc.hash || mips.name != doc.name {
				t.Errorf("mips spelling hashes %s/%s, scenario %s/%s", mips.name, mips.hash, doc.name, doc.hash)
			}
			if !reflect.DeepEqual(mips.runs[0].mips, doc.runs[0].mips) {
				t.Errorf("run specs differ:\n mips:     %+v\n scenario: %+v", *mips.runs[0].mips, *doc.runs[0].mips)
			}
			if w := mips.runs[0].work; w.Source() != bound.Source() || !slices.Equal(w.Cores(), bound.Cores()) {
				t.Error("the two spellings bind to different sources or placements")
			}

			const huge = 1 << 30
			for _, param := range slices.Sorted(maps.Keys(k.Defaults)) {
				bad := maps.Clone(k.Defaults)
				bad[param] = huge
				if _, apiErr := buildScenario(viaDoc(bad)); apiErr == nil || apiErr.Field != "/scenario/workload/params/"+param {
					t.Errorf("scenario %s=%d: %v, want /scenario/workload/params/%s", param, huge, apiErr, param)
				}
				req, field := viaMips(frozen, bad), "/mips/params/"+param
				if frozen != (workloads.Frozen{}) {
					f := frozen
					switch param {
					case "rounds":
						f.Rounds = huge
					case "q":
						f.Q = huge
					case "b":
						f.B = huge
					}
					req, field = viaMips(f, nil), "/mips/"+param
				}
				if _, apiErr := buildScenario(req); apiErr == nil || apiErr.Field != field {
					t.Errorf("mips %s=%d: %v, want %s", param, huge, apiErr, field)
				}
			}
		})
	}
}

// TestScenarioWorkloadSweep: a sweep over kernel parameters — a shape
// no legacy kind could express — expands to one run per point and
// executes through the shared batch machinery.
func TestScenarioWorkloadSweep(t *testing.T) {
	req := scenarioJSON(t, `{
		"version": 1,
		"name": "reduce-sweep",
		"machine": {"topology": {"kind": "mesh", "width": 2, "height": 2}},
		"workload": {"kernel": "reduction"},
		"run": {"fast_forward": true},
		"sweep": [{"name": "elems", "path": "/workload/params/elems", "values": [8, 64]}]
	}`)
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		t.Fatalf("buildScenario: %v", apiErr)
	}
	if sc.taskKind != KindBatch || sc.surface != KindScenario || len(sc.runs) != 2 {
		t.Fatalf("kind/surface/runs = %s/%s/%d", sc.taskKind, sc.surface, len(sc.runs))
	}
	doc, hash := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, req)
	if hash != sc.hash {
		t.Fatalf("executed hash %s != compiled hash %s", hash, sc.hash)
	}
	var parsed struct {
		Runs []struct {
			Key string `json:"key"`
			Err string `json:"err,omitempty"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("document: %v", err)
	}
	if len(parsed.Runs) != 2 {
		t.Fatalf("document has %d runs, want 2", len(parsed.Runs))
	}
	wantKeys := []string{"elems-8", "elems-64"}
	for i, r := range parsed.Runs {
		if r.Key != wantKeys[i] {
			t.Fatalf("run %d key = %q, want %q", i, r.Key, wantKeys[i])
		}
		if r.Err != "" {
			t.Fatalf("run %s errored: %s", r.Key, r.Err)
		}
	}
}

// TestDryRunMatchesSubmit: the validate path reports exactly the
// identity a real submission acquires.
func TestDryRunMatchesSubmit(t *testing.T) {
	req := scenarioJSON(t, newKernelScenario(2))
	resp, apiErr := DryRun(req)
	if apiErr != nil {
		t.Fatalf("DryRun: %v", apiErr)
	}
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		t.Fatalf("buildScenario: %v", apiErr)
	}
	if resp.Kind != KindScenario || resp.Name != sc.name || resp.ConfigHash != sc.hash ||
		resp.CacheKey != sc.name+"-"+sc.hash || resp.Shards != 2 {
		t.Fatalf("DryRun response diverges from compiled scenario: %+v vs %s/%s", resp, sc.name, sc.hash)
	}
	if len(resp.Normalized) == 0 {
		t.Fatal("DryRun of a scenario must include the normalized document")
	}
	if resp.RunsTotal != 1 || resp.RunKeys[0] != "matmul-ring" {
		t.Fatalf("runs = %d %v", resp.RunsTotal, resp.RunKeys)
	}
}
