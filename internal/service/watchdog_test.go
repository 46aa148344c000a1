package service

import (
	"context"
	"testing"
	"time"
)

// The stall watchdog must cover jobs stuck in StateQueued — a job no
// scheduler worker ever picks up has no Started and no lastActive, so
// the episode clock falls back to admission time — and the start
// transition must re-arm the episode.
func TestWatchdogCoversQueuedJobs(t *testing.T) {
	sc := &scenario{surface: KindBatch, name: "queued-forever", hash: "0123456789abcdef", seed: 1}
	created := time.Now().Add(-time.Hour)
	j := newJob("job-queued", SubmitRequest{}, sc, context.Background(), created)

	if !j.checkStall(time.Now(), time.Minute) {
		t.Fatal("queued-forever job did not trip the watchdog")
	}
	if j.checkStall(time.Now(), time.Minute) {
		t.Fatal("one stall episode fired twice")
	}
	if got := j.Info().Stalls; got != 1 {
		t.Fatalf("Stalls = %d, want 1", got)
	}

	// Starting the job ends the queued-stall episode: a freshly running
	// job is not stalled, but a later silent stretch trips a new episode.
	j.start(time.Now())
	if j.checkStall(time.Now(), time.Minute) {
		t.Fatal("freshly started job tripped the watchdog")
	}
	j.mu.Lock()
	j.lastActive = time.Now().Add(-time.Hour)
	j.mu.Unlock()
	if !j.checkStall(time.Now(), time.Minute) {
		t.Fatal("silent running job did not trip a second episode")
	}
	if got := j.Info().Stalls; got != 2 {
		t.Fatalf("Stalls = %d, want 2", got)
	}
}
