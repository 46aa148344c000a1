package snapshotcli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hornet/internal/config"
	"hornet/internal/core"
	"hornet/internal/mips"
	"hornet/internal/noc"
	"hornet/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshot produces a fully deterministic snapshot of a
// MIPS-over-MSI system mid-run: fixed config, fixed seed, fixed cycle,
// so its inspection output is stable byte for byte.
func goldenSnapshot(t *testing.T, path string) {
	t.Helper()
	cfg := config.Default()
	cfg.Topology.Width, cfg.Topology.Height = 2, 2
	cfg.Engine.Workers = 1
	cfg.Engine.Seed = 0xC0FFEE
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mc := *config.DefaultMemory()
	fab, err := sys.AttachMemory(mc)
	if err != nil {
		t.Fatalf("AttachMemory: %v", err)
	}
	img, err := mips.Assemble(workloads.SharedPingPongSource(40, 3))
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	sys.AttachMIPSShared([]noc.NodeID{0, 3}, img, fab, mc)
	sys.Run(500)
	blob, err := sys.SnapshotBytes()
	if err != nil {
		t.Fatalf("SnapshotBytes: %v", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInspectGolden locks the `snapshot <file>` output format — the
// section table, the frontend manifest with its counts, and the payload
// totals — against a golden file. Regenerate with `go test -update`
// after an intentional format or encoding change.
func TestInspectGolden(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.snap")
	goldenSnapshot(t, path)

	var out, errOut bytes.Buffer
	if code := Inspect([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("Inspect exit code %d, stderr %q", code, errOut.String())
	}
	// The first line echoes the (temp) path; everything after it must be
	// deterministic.
	_, got, ok := strings.Cut(out.String(), "\n")
	if !ok {
		t.Fatalf("output has no path line: %q", out.String())
	}

	goldenPath := filepath.Join("testdata", "inspect_mips.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./internal/snapshotcli -update` to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("inspection output drifted from golden file (re-run with -update if intentional):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestInspectErrors: usage and corrupt-file paths exit non-zero with a
// diagnostic instead of panicking.
func TestInspectErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Inspect(nil, &out, &errOut); code != 2 {
		t.Errorf("no-arg exit code = %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if code := Inspect([]string{bad}, &out, &errOut); code != 1 {
		t.Errorf("corrupt-file exit code = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "corrupt") {
		t.Errorf("corrupt-file diagnostic %q does not mention corruption", errOut.String())
	}
}
