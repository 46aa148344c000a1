package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/obs"
	"hornet/internal/service/backend"
)

// Service-level contracts of the shards field: `shards: N` asks for N
// engine workers for one simulation, on whichever worker placement gives
// the job, and its document and content address are those of the same
// request without shards.

// shardConfig is a small synthetic scenario.
func shardConfig() *config.Config {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.10}}
	cfg.WarmupCycles = 300
	cfg.AnalyzedCycles = 4_000
	return &cfg
}

// linkMachines are the sharded byte-identity tests' machines: shardConfig
// with fixed links, and with bidirectional links under uniform traffic
// busy enough that the far side's free space caps the link arbiter's
// demand.
func linkMachines() []struct {
	name string
	cfg  *config.Config
} {
	bidirectional := shardConfig()
	bidirectional.Router.Bidirectional = true
	bidirectional.Traffic = []config.TrafficConfig{{Pattern: config.PatternUniform, InjectionRate: 0.20}}
	return []struct {
		name string
		cfg  *config.Config
	}{{"fixed", shardConfig()}, {"bidirectional", bidirectional}}
}

// runToDoc submits req on a fresh daemon built from opts and returns
// the finished job's raw document bytes plus its config hash.
func runToDoc(t *testing.T, opts Options, req SubmitRequest) ([]byte, string) {
	t.Helper()
	srv := mustServer(t, opts)
	defer srv.Close()
	j := submitDirect(t, srv, req)
	info := waitDone(t, j, 120*time.Second)
	if info.State != StateDone {
		t.Fatalf("job state = %s (%s)", info.State, info.Error)
	}
	b, ok := j.Result()
	if !ok {
		t.Fatal("finished job has no result")
	}
	return b, info.ConfigHash
}

// executeSharded runs req, which asks for 2 shards, through Execute — a
// remote worker's path — granted 2 CPU slots, and checks that its one
// engine ran on 2 workers.
func executeSharded(t *testing.T, req SubmitRequest, opts ExecOptions) *ExecResult {
	t.Helper()
	probe := obs.NewSimProbe()
	opts.Workers, opts.Probe = 2, probe
	res, err := Execute(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if parts := len(probe.Snapshot().Partitions); parts != 2 {
		t.Errorf("the sharded run's engine had %d workers, want 2", parts)
	}
	return res
}

// TestShardedLocalSyntheticByteIdentity: the same synthetic scenario run
// without shards and with shards 2 must hash identically (shards is an
// execution knob, not document identity) and produce byte-identical result
// documents, with fixed and with bidirectional links.
func TestShardedLocalSyntheticByteIdentity(t *testing.T) {
	for _, m := range linkMachines() {
		t.Run(m.name, func(t *testing.T) {
			base := SubmitRequest{Name: "shard-synth", Config: m.cfg, Seed: 21}

			single, hashSingle := runToDoc(t, Options{MaxJobs: 1, Budget: 1}, base)

			sharded := base
			sharded.Shards = 2
			res := executeSharded(t, sharded, ExecOptions{})
			if res.Hash != hashSingle {
				t.Fatalf("sharded run hashed differently: %s vs %s", res.Hash, hashSingle)
			}
			if !bytes.Equal(res.Doc, single) {
				t.Fatalf("2-way sharded document differs from the one-worker run:\n single: %s\n sharded: %s", single, res.Doc)
			}
		})
	}
}

// TestShardedLocalMIPSByteIdentity: an application workload (MIPS
// ping-pong, fast-forward on) with shards 2 completes at the cycle the
// one-worker run does and emits its document bytes.
func TestShardedLocalMIPSByteIdentity(t *testing.T) {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Engine.FastForward = true
	base := SubmitRequest{
		Name: "shard-mips",
		Seed: 9,
		Mips: &MipsSpec{Workload: "pingpong", Rounds: 40, Config: cfg},
	}

	single, hashSingle := runToDoc(t, Options{MaxJobs: 1, Budget: 1}, base)

	sharded := base
	sharded.Shards = 2
	res := executeSharded(t, sharded, ExecOptions{})
	if res.Hash != hashSingle {
		t.Fatalf("sharded run hashed differently: %s vs %s", res.Hash, hashSingle)
	}
	if !bytes.Equal(res.Doc, single) {
		t.Fatalf("2-way sharded MIPS document differs from the one-worker run")
	}
}

// TestShardedLocalCheckpointedByteIdentity: checkpointing must not
// perturb results — a sharded run autosaving on a tiny cadence emits the
// same bytes as the unsharded, uncheckpointed run.
func TestShardedLocalCheckpointedByteIdentity(t *testing.T) {
	for _, m := range linkMachines() {
		t.Run(m.name, func(t *testing.T) {
			base := SubmitRequest{Name: "shard-ckpt", Config: m.cfg, Seed: 33}

			single, _ := runToDoc(t, Options{MaxJobs: 1, Budget: 1}, base)

			// Every autosave chunk opens with a join synchronization; on
			// the bidirectional machine a short cadence puts enough of
			// them under load that one re-arbitrating a link would show
			// in the document.
			every := uint64(700)
			if m.cfg.Router.Bidirectional {
				every = 13
			}
			sharded := base
			sharded.Shards = 2
			res := executeSharded(t, sharded, ExecOptions{
				Checkpoints: DirCheckpointStore{Dir: t.TempDir()}, CheckpointEvery: every})
			if !bytes.Equal(res.Doc, single) {
				t.Fatalf("checkpointed sharded document differs from clean one-worker run")
			}
		})
	}
}

// TestShardedJobWithoutWorkersRunsAsOneEngine: a sharded job takes the
// ordinary placement path. A workerless daemon runs a 2-way sharded job
// in-process as one engine on max(workers, shards) = 2 budget slots; a
// daemon with a 1-slot remote worker hands it to that worker with its
// weight clamped to the one slot. Both give the content address and
// document of the request without shards.
func TestShardedJobWithoutWorkersRunsAsOneEngine(t *testing.T) {
	base := SubmitRequest{Name: "shard-one-engine", Config: shardConfig(), Seed: 5}
	single, hashSingle := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, base)
	sharded := base
	sharded.Shards = 2

	t.Run("in-process", func(t *testing.T) {
		srv := mustServer(t, Options{MaxJobs: 1, Budget: 2})
		defer srv.Close()
		j := submitDirect(t, srv, sharded)
		info := waitDone(t, j, 120*time.Second)
		if info.State != StateDone || info.Backend != "local" {
			t.Fatalf("job state = %s on backend %q (%s); want done on local", info.State, info.Backend, info.Error)
		}
		if doc, _ := j.Result(); info.ConfigHash != hashSingle || !bytes.Equal(doc, single) {
			t.Errorf("sharded job (hash %s) differs from the unsharded job (hash %s):\n single:  %s\n sharded: %s",
				info.ConfigHash, hashSingle, single, doc)
		}
		if info.Engine == nil || len(info.Engine.Partitions) != 2 {
			t.Errorf("engine probe %+v; want one engine of 2 partitions", info.Engine)
		}
	})

	t.Run("remote", func(t *testing.T) {
		srv := mustServer(t, Options{MaxJobs: 1, Budget: 2})
		defer srv.Close()
		if _, err := srv.fleet.Register(backend.RegisterRequest{ID: "w1", Capacity: 1}); err != nil {
			t.Fatal(err)
		}
		j := submitDirect(t, srv, sharded)
		// Stand in for the worker: take the assignment, run it as
		// hornet-worker does, push the document.
		ctx := context.Background()
		a, err := srv.fleet.Poll(ctx, "w1", 30*time.Second)
		if err != nil || a == nil {
			t.Fatalf("poll = %+v, %v; want the sharded job's assignment", a, err)
		}
		if a.Workers != 1 {
			t.Fatalf("the 1-slot worker was granted %d slots", a.Workers)
		}
		var req SubmitRequest
		if err := json.Unmarshal(a.Request, &req); err != nil {
			t.Fatal(err)
		}
		probe := obs.NewSimProbe()
		res, err := Execute(ctx, req, ExecOptions{Workers: a.Workers, Probe: probe})
		if err != nil {
			t.Fatal(err)
		}
		if parts := len(probe.Snapshot().Partitions); parts != 1 {
			t.Errorf("the remote run's engine had %d workers, want the 1 slot granted", parts)
		}
		if err := srv.fleet.PushResult("w1", a.TaskID, backend.ResultPush{Doc: res.Doc, RunErrs: res.RunErrs}); err != nil {
			t.Fatal(err)
		}
		info := waitDone(t, j, 120*time.Second)
		if info.State != StateDone || info.Backend != "fleet" {
			t.Fatalf("job state = %s on backend %q (%s); want done on fleet", info.State, info.Backend, info.Error)
		}
		if doc, _ := j.Result(); info.ConfigHash != hashSingle || !bytes.Equal(doc, single) {
			t.Errorf("remotely run sharded job (hash %s) differs from the unsharded job (hash %s)", info.ConfigHash, hashSingle)
		}
	})
}

// TestShardedLocalFeedsDaemonCheckpointStats: a sharded job that stays
// in-process runs on the daemon's own execution environment, so its
// autosaves show in the daemon's checkpoint statistics.
func TestShardedLocalFeedsDaemonCheckpointStats(t *testing.T) {
	srv := mustServer(t, Options{MaxJobs: 1, Budget: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 700})
	defer srv.Close()
	j := submitDirect(t, srv, SubmitRequest{Name: "shard-stats", Config: shardConfig(), Seed: 8, Shards: 2})
	if info := waitDone(t, j, 120*time.Second); info.State != StateDone {
		t.Fatalf("job state = %s (%s)", info.State, info.Error)
	}
	if st := srv.Stats(); st.CheckpointsWritten == 0 {
		t.Fatalf("stats.checkpoints_written = 0 after a locally sharded job autosaved every 700 cycles")
	}
}

// TestFastForwardAutosaveCadenceByteIdentity is the regression test for
// the fast-forward/checkpoint interaction: autosave chunk boundaries
// interrupt fast-forward jumps, and a resumed chunk must re-derive the
// interrupted jump (RunUntilResumed) so the autosave cadence never
// leaks into result bytes. Before the fix, fast-forwarding runs were
// simply exempted from autosave; now they checkpoint like everything
// else and must still match the uncheckpointed run byte for byte.
func TestFastForwardAutosaveCadenceByteIdentity(t *testing.T) {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 2, 2
	cfg.Engine.FastForward = true
	// The H.264 CBR profile injects one packet every 1/rate cycles with
	// a predictable NextEvent, so the engine genuinely jumps the idle
	// stretches between packets — a 1000-cycle chunk boundary then lands
	// mid-jump with certainty (period 200 >> network drain time).
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternH264, InjectionRate: 0.005}}
	cfg.WarmupCycles = 0
	cfg.AnalyzedCycles = 50_000
	req := SubmitRequest{Name: "ff-cadence", Config: &cfg, Seed: 5}

	clean, _ := runToDoc(t, Options{MaxJobs: 1, Budget: 1}, req)

	srv := mustServer(t, Options{MaxJobs: 1, Budget: 1, CheckpointDir: t.TempDir(), CheckpointEvery: 1_000})
	defer srv.Close()
	j := submitDirect(t, srv, req)
	info := waitDone(t, j, 120*time.Second)
	if info.State != StateDone {
		t.Fatalf("checkpointed job state = %s (%s)", info.State, info.Error)
	}
	ckpt, ok := j.Result()
	if !ok {
		t.Fatal("finished job has no result")
	}

	// The scenario must actually fast-forward and actually checkpoint,
	// or the test proves nothing.
	var doc struct {
		Runs []struct {
			Value RunStats `json:"value"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(clean, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Value.SkippedCycles == 0 {
		t.Fatalf("scenario did not fast-forward (skipped=0); it cannot regress the cadence leak")
	}
	if st := srv.Stats(); st.CheckpointsWritten == 0 {
		t.Fatalf("fast-forwarding run wrote no checkpoints — the autosave exemption is back?")
	}

	if !bytes.Equal(ckpt, clean) {
		t.Fatalf("autosave cadence leaked into fast-forwarded result bytes:\n clean: %s\n ckpt:  %s", clean, ckpt)
	}
}
