package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"hornet/internal/experiments"
	"hornet/internal/service/backend"
)

// A panic during scenario execution must become a failed job, never a
// dead daemon: the experiments package panics on bad runs, and that
// panic reaches the scheduler worker through Figure.Document.
func TestRunJobSurvivesScenarioPanic(t *testing.T) {
	results := newResultStore("")
	fleet := backend.NewFleet(backend.FleetOptions{})
	defer fleet.Close()
	s := newScheduler(1, 1, 0, results, newExecEnv("", 0), fleet)
	defer s.stop()

	// A zero-value Figure has a nil runner: invoking it panics, standing
	// in for any panic out of figure execution.
	sc := &scenario{surface: KindFigure, fig: &experiments.Figure{}, name: "boom", hash: "feedfacefeedface", seed: 1}
	j := newJob("job-test", SubmitRequest{}, sc, context.Background(), time.Now())

	s.runJob(j)

	info := j.Info()
	if info.State != StateFailed {
		t.Fatalf("job state = %s, want %s", info.State, StateFailed)
	}
	if !strings.Contains(info.Error, "panicked") {
		t.Fatalf("job error %q does not mention the panic", info.Error)
	}
	// The scheduler worker pool must still be alive and usable.
	ok := &scenario{surface: KindBatch, name: "ok", hash: "0000000000000000", seed: 1}
	j2 := newJob("job-test-2", SubmitRequest{}, ok, context.Background(), time.Now())
	s.runJob(j2)
	if got := j2.Info().State; got != StateDone {
		t.Fatalf("follow-up job state = %s, want %s", got, StateDone)
	}
}
