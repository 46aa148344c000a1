package service

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/obs"
	"hornet/internal/service/backend"
)

// Service-level contracts of space-parallel execution: the members of a
// group — Execute calls with a ShardMember each, joined over one
// backend.ShardGroup as the fleet joins remote members — produce the
// document of the ordinary single-engine run of the same request, and a
// daemon that cannot place the members remotely runs the job as that one
// engine. The cross-process version lives in e2e.

// shardConfig is a synthetic scenario small enough to co-run N member
// engines in one test process.
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

// groupPeer is member's end of an in-process group, joining at the
// group's current epoch; ctx bounds its waits.
func groupPeer(ctx context.Context, g *backend.ShardGroup, member int) *backend.MemberPeer {
	return backend.NewMemberPeer(g.Epoch(), func(epoch int, payload []byte) ([][]byte, error) {
		return g.Exchange(ctx, epoch, member, payload)
	})
}

// runMembers runs req as the members of group, all in this process: one
// Execute call each, with opts(i) plus its ShardMember. A member's
// failure cancels the group and fails the test; the results come back in
// member order.
func runMembers(t *testing.T, req SubmitRequest, group *backend.ShardGroup, opts func(i int) ExecOptions) []*ExecResult {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	n := group.Members()
	results := make([]*ExecResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range results {
		o := opts(i)
		o.Shard = &ShardMember{Index: i, Count: n, Transport: groupPeer(ctx, group, i)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Execute(ctx, req, o)
			if errs[i] != nil {
				group.Cancel(errs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	return results
}

// oneWorker is every member's options in the byte-identity tests.
func oneWorker(int) ExecOptions { return ExecOptions{Workers: 1} }

// TestShardedLocalSyntheticByteIdentity: the same synthetic scenario
// run unsharded and sharded 2-way must hash identically (shards is an
// execution knob, not document identity) and produce byte-identical
// result documents through an in-process member group, with fixed and
// with bidirectional links.
func TestShardedLocalSyntheticByteIdentity(t *testing.T) {
	for _, m := range linkMachines() {
		t.Run(m.name, func(t *testing.T) {
			base := SubmitRequest{Name: "shard-synth", Config: m.cfg, Seed: 21}

			single, hashSingle := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, base)

			sharded := base
			sharded.Shards = 2
			root := runMembers(t, sharded, backend.NewShardGroup(2), oneWorker)[0]
			doc2, hash2 := root.Doc, root.Hash

			if hash2 != hashSingle {
				t.Fatalf("sharded run hashed differently: %s vs %s", hash2, hashSingle)
			}
			if !bytes.Equal(doc2, single) {
				t.Fatalf("2-way sharded document differs from single-engine run:\n single: %s\n sharded: %s", single, doc2)
			}
		})
	}
}

// TestShardedLocalMIPSByteIdentity: an application workload (MIPS
// ping-pong, fast-forward on) sharded 2-way completes by the group
// decision — per-span halt conditions ANDed, in-flight flits summed —
// and still emits the single-engine document bytes.
func TestShardedLocalMIPSByteIdentity(t *testing.T) {
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Engine.FastForward = true
	base := SubmitRequest{
		Name: "shard-mips",
		Seed: 9,
		Mips: &MipsSpec{Workload: "pingpong", Rounds: 40, Config: cfg},
	}

	single, hashSingle := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, base)

	sharded := base
	sharded.Shards = 2
	root := runMembers(t, sharded, backend.NewShardGroup(2), oneWorker)[0]
	doc2, hash2 := root.Doc, root.Hash

	if hash2 != hashSingle {
		t.Fatalf("sharded run hashed differently: %s vs %s", hash2, hashSingle)
	}
	if !bytes.Equal(doc2, single) {
		t.Fatalf("2-way sharded MIPS document differs from single-engine run")
	}
}

// TestShardedLocalCheckpointedByteIdentity: member checkpointing (per
// -s{i} store keys) must not perturb results — a sharded run autosaving
// on a tiny cadence emits the same bytes as the unsharded, uncheck-
// pointed run.
func TestShardedLocalCheckpointedByteIdentity(t *testing.T) {
	for _, m := range linkMachines() {
		t.Run(m.name, func(t *testing.T) {
			base := SubmitRequest{Name: "shard-ckpt", Config: m.cfg, Seed: 33}

			single, _ := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, base)

			// Every autosave chunk opens with a join synchronization; on
			// the bidirectional machine a short cadence puts enough of
			// them under load that one re-arbitrating a boundary link
			// shows in the document.
			every := uint64(700)
			if m.cfg.Router.Bidirectional {
				every = 13
			}
			sharded := base
			sharded.Shards = 2
			store := DirCheckpointStore{Dir: t.TempDir()}
			doc2 := runMembers(t, sharded, backend.NewShardGroup(2), func(int) ExecOptions {
				return ExecOptions{Workers: 1, Checkpoints: store, CheckpointEvery: every}
			})[0].Doc

			if !bytes.Equal(doc2, single) {
				t.Fatalf("checkpointed sharded document differs from clean single-engine run")
			}
		})
	}
}

// TestShardedJobWithoutWorkersRunsAsOneEngine: a workerless daemon runs
// a 2-way sharded job as one in-process engine on both budget slots, and
// its document is the unsharded job's.
func TestShardedJobWithoutWorkersRunsAsOneEngine(t *testing.T) {
	base := SubmitRequest{Name: "shard-one-engine", Config: shardConfig(), Seed: 5}
	single, _ := runToDoc(t, Options{MaxJobs: 1, Budget: 2}, base)

	srv := mustServer(t, Options{MaxJobs: 1, Budget: 2})
	defer srv.Close()
	sharded := base
	sharded.Shards = 2
	j := submitDirect(t, srv, sharded)
	info := waitDone(t, j, 120*time.Second)
	if info.State != StateDone || info.Backend != "local" {
		t.Fatalf("job state = %s on backend %q (%s); want done on local", info.State, info.Backend, info.Error)
	}
	if doc, _ := j.Result(); !bytes.Equal(doc, single) {
		t.Errorf("sharded job's document differs from the unsharded job's:\n single:  %s\n sharded: %s", single, doc)
	}
	if info.Engine == nil || len(info.Engine.Partitions) != 2 {
		t.Errorf("engine probe %+v; want one engine of 2 partitions", info.Engine)
	}
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

// stagingStore is a group member's checkpoint store that also stages
// every autosave into the group, as the fleet stages a worker's uploads.
// When lose reports true for a save, the save stands for the loss of a
// member instead: the group rolls back and the blob is not staged.
type stagingStore struct {
	*MemCheckpointStore
	group  *backend.ShardGroup
	member int
	lose   func(cycle uint64) bool
}

func (s stagingStore) Save(key string, blob []byte, cycle uint64) error {
	if s.lose != nil && s.lose(cycle) {
		s.group.MemberLost()
	} else {
		s.group.Stage(s.member, key, cycle, blob)
	}
	return s.MemCheckpointStore.Save(key, blob, cycle)
}

// TestShardGroupRollbackByteIdentity drives the rollback branch of the
// run driver without a fleet: two members run through Execute over one
// in-process group. Member 0's first autosave after the group's first
// promotion stands for a lost member, so the group rolls back while that
// member's own store holds a blob ahead of the stable cycle. Both members
// must restore the stable blobs their notices carry, replay, and finish
// with the unsharded document; the root's probe must count exactly the
// replayed cycles on top of one full run, not a restart from cycle 0.
func TestShardGroupRollbackByteIdentity(t *testing.T) {
	ctx := context.Background()
	req := SubmitRequest{Name: "rollback", Config: shardConfig(), Seed: 13}
	plain, err := Execute(ctx, req, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req.Shards = 2

	group := backend.NewShardGroup(2)
	probe := obs.NewSimProbe()
	var lost atomic.Bool
	var lostAt, stableAt uint64
	results := runMembers(t, req, group, func(i int) ExecOptions {
		store := stagingStore{MemCheckpointStore: NewMemCheckpointStore(), group: group, member: i}
		var memberProbe *obs.SimProbe
		if i == 0 {
			memberProbe = probe
			store.lose = func(cycle uint64) bool {
				stable, _, ok := group.StableSet()
				if !ok || !lost.CompareAndSwap(false, true) {
					return false
				}
				lostAt, stableAt = cycle, stable
				return true
			}
		}
		return ExecOptions{Workers: 1, Checkpoints: store, CheckpointEvery: 1_000, Probe: memberProbe}
	})
	if !lost.Load() || group.Epoch() != 1 {
		t.Fatalf("no rollback happened (lost=%v, epoch %d)", lost.Load(), group.Epoch())
	}
	if !bytes.Equal(results[0].Doc, plain.Doc) {
		t.Errorf("document after a group rollback differs from the unsharded run:\n plain:   %s\n sharded: %s", plain.Doc, results[0].Doc)
	}
	full := uint64(req.Config.WarmupCycles + req.Config.AnalyzedCycles)
	if got, want := probe.Snapshot().Cycles, full+lostAt-stableAt; got != want {
		t.Errorf("root executed %d cycles, want %d: one run of %d plus the replay from stable cycle %d to %d (from cycle 0: %d)",
			got, want, full, stableAt, lostAt, full+lostAt)
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
