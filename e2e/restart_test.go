package e2e

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"hornet/internal/config"
	"hornet/internal/service"
	"hornet/internal/service/client"
)

// TestCoordinatorRestartE2E is the durable-coordinator drill against
// real processes: boot a journaled coordinator and a small worker
// fleet, SIGKILL the coordinator mid-run, restart it against the same
// -journal-dir, and require that the in-flight job reattaches and
// completes — resumed_runs > 0, document byte-identical to an
// uninterrupted in-process run. The drill runs twice, and both times the
// still-running worker must be re-adopted in place: a plain fleet job,
// and a `shards: 2` one, which runs as one task like any other and shows
// that a submission written for the retired member path survives a
// restart too.
func TestCoordinatorRestartE2E(t *testing.T) {
	if os.Getenv("HORNET_E2E") == "" {
		t.Skip("set HORNET_E2E=1 to run the process-level coordinator-restart drill")
	}

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"hornet/cmd/hornet-serve", "hornet/cmd/hornet-worker")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building binaries: %v", err)
	}

	jdir, ckptDir := t.TempDir(), t.TempDir()
	addr := freePort(t)
	base := "http://" + addr
	coordArgs := []string{
		"-addr", addr, "-jobs", "2", "-budget", "2",
		"-checkpoint-every", "500", "-worker-ttl", "2s",
		"-journal-dir", jdir, "-checkpoint-dir", ckptDir,
	}

	// On failure, archive the journal the restarted coordinator replayed:
	// it is the drill's flight recorder.
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		artifacts := os.Getenv("HORNET_E2E_ARTIFACTS")
		if artifacts == "" {
			return
		}
		if err := os.MkdirAll(artifacts, 0o755); err != nil {
			return
		}
		if b, err := os.ReadFile(filepath.Join(jdir, "journal.wal")); err == nil {
			dst := filepath.Join(artifacts, "coordinator-journal.wal")
			if os.WriteFile(dst, b, 0o644) == nil {
				t.Logf("journal archived at %s (%d bytes)", dst, len(b))
			}
		}
	})

	start := func(name string, args ...string) *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
		return cmd
	}

	coord := start("hornet-serve", coordArgs...)
	waitHealthy(t, base)

	// Three single-slot workers: each drill needs one executor, and the
	// spares absorb timing.
	for i := 1; i <= 3; i++ {
		start("hornet-worker", "-coordinator", base,
			"-id", fmt.Sprintf("e2e-r%d", i), "-capacity", "1")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	c := client.New(base)
	deadline := time.Now().Add(30 * time.Second)
	for {
		ws, err := c.Workers(ctx)
		if err == nil && len(ws) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("three workers never registered (last: %v, %v)", ws, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 4, 4
	cfg.Traffic = []config.TrafficConfig{{Pattern: config.PatternTranspose, InjectionRate: 0.08}}
	cfg.WarmupCycles = 400
	cfg.AnalyzedCycles = 60_000

	drills := []service.SubmitRequest{
		{Name: "e2e-restart-plain", Config: &cfg, Seed: 23},
		{Name: "e2e-restart-sharded", Config: &cfg, Seed: 29, Shards: 2},
	}
	for _, req := range drills {
		coord = runCoordinatorRestartDrill(t, ctx, c, req, coord,
			func() *exec.Cmd { return start("hornet-serve", coordArgs...) }, base)
	}
}

// runCoordinatorRestartDrill submits one request, SIGKILLs the
// coordinator once checkpointed progress exists, restarts it against
// the same journal, and requires the job to reattach, resume and finish
// byte-identically. Returns the new coordinator process.
func runCoordinatorRestartDrill(t *testing.T, ctx context.Context, c *client.Client,
	req service.SubmitRequest, coord *exec.Cmd, restart func() *exec.Cmd, base string) *exec.Cmd {
	t.Helper()

	info, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("%s: submit: %v", req.Name, err)
	}

	// Wait for durable progress before the kill: two checkpoints, for a
	// deeper resume.
	deadline := time.Now().Add(3 * time.Minute)
	for {
		ji, err := c.Job(ctx, info.ID)
		if err != nil {
			t.Fatalf("%s: job poll: %v", req.Name, err)
		}
		if ji.Terminal() {
			t.Fatalf("%s: job finished before the kill; state %+v (grow the workload)", req.Name, ji)
		}
		if ji.Checkpoints >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: no checkpointed progress; job %+v", req.Name, ji)
		}
		time.Sleep(20 * time.Millisecond)
	}

	t.Logf("%s: SIGKILLing the coordinator mid-run", req.Name)
	if err := coord.Process.Kill(); err != nil {
		t.Fatalf("%s: kill coordinator: %v", req.Name, err)
	}
	coord.Wait()

	coord = restart()
	waitHealthy(t, base)

	// The restarted daemon must have replayed the journal and rebuilt the
	// job under its original ID.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("%s: stats after restart: %v", req.Name, err)
	}
	if !st.Journal.Enabled || st.JobsRestored < 1 {
		t.Fatalf("%s: restarted coordinator replayed nothing: journal %+v, restored %d",
			req.Name, st.Journal, st.JobsRestored)
	}

	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatalf("%s: wait: %v", req.Name, err)
	}
	if final.State != service.StateDone {
		t.Fatalf("%s: restored job state = %s (%s)", req.Name, final.State, final.Error)
	}
	if final.ResumedRuns < 1 {
		t.Errorf("%s: resumed_runs = %d, want >= 1 (the job should have reattached or resumed from checkpoints)",
			req.Name, final.ResumedRuns)
	}
	_, served, err := c.Result(ctx, info.ID)
	if err != nil {
		t.Fatalf("%s: result: %v", req.Name, err)
	}

	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatalf("%s: stats: %v", req.Name, err)
	}
	if st.Fleet.TasksAdopted < 1 {
		t.Errorf("%s: the pre-restart executor was never re-adopted: %+v", req.Name, st.Fleet)
	}

	// The golden contract: killed coordinator, replayed journal, resumed
	// fleet work — and the served bytes still match an uninterrupted
	// in-process execution of the same request.
	unsharded := req
	unsharded.Shards = 0
	ref, err := service.Execute(ctx, unsharded, service.ExecOptions{Workers: 1})
	if err != nil {
		t.Fatalf("%s: reference execute: %v", req.Name, err)
	}
	if !bytes.Equal(served, ref.Doc) {
		t.Errorf("%s: restarted-coordinator document differs from uninterrupted run:\nserved: %s\nref:    %s",
			req.Name, served, ref.Doc)
	}
	fmt.Printf("e2e: %s survived a coordinator SIGKILL+restart; resumed_runs=%d, adopted=%d, doc bytes identical\n",
		req.Name, final.ResumedRuns, st.Fleet.TasksAdopted)
	return coord
}
