package service

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"hornet/internal/obs"
)

// These tests pin the two ordering rules of the job record: a terminal
// transition reaches the journal hook before anyone can observe it, and
// the merged telemetry stream never moves backwards in cycle. Both hold
// the racing party still with a hook or an injected sample instead of
// hoping to hit the window, so they fail on every run without the rule.

// observedTerminal reports whether any of the three ways a client learns
// of completion shows it: the done channel, the info snapshot, a closed
// subscriber channel.
func observedTerminal(j *job, sub <-chan Event) (string, bool) {
	select {
	case <-j.Done():
		return "done is closed", true
	default:
	}
	if info := j.Info(); info.Terminal() {
		return "info reads " + info.State, true
	}
	select {
	case _, open := <-sub:
		if !open {
			return "the subscriber channel is closed", true
		}
	default:
	}
	if _, ok := j.Result(); ok {
		return "the result is served", true
	}
	return "", false
}

// TestFinalizeJournalsBeforePublishing blocks the journal hook inside each
// terminal transition and requires that, for as long as the record has not
// been written, the job does not look finished to anyone.
func TestFinalizeJournalsBeforePublishing(t *testing.T) {
	transitions := map[string]func(j *job){
		StateDone:     func(j *job) { j.finish([]byte(`{"ok":true}`), false, time.Now()) },
		StateFailed:   func(j *job) { j.fail("boom", time.Now()) },
		StateCanceled: func(j *job) { j.markCanceled(time.Now()) },
	}
	for state, transition := range transitions {
		t.Run(state, func(t *testing.T) {
			sc := &scenario{surface: KindBatch, name: "ordered", hash: "0011223344556677", seed: 1}
			j := newJob("job-000001", SubmitRequest{}, sc, context.Background(), time.Now())
			entered, release := make(chan JobInfo, 1), make(chan struct{})
			j.onState = func(info JobInfo) {
				if info.Terminal() {
					entered <- info
					<-release
				}
			}
			j.start(time.Now())
			sub, unsub := j.subscribe()
			defer unsub()

			finished := make(chan struct{})
			go func() {
				defer close(finished)
				transition(j)
			}()
			var journaled JobInfo
			select {
			case journaled = <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the terminal transition never reached the journal hook")
			}
			if journaled.State != state {
				t.Fatalf("journal hook received state %s, want %s", journaled.State, state)
			}
			if how, seen := observedTerminal(j, sub); seen {
				t.Fatalf("%s while the terminal record is still being journaled: a client acting on it restarts the daemon ahead of the record", how)
			}
			// A second transition racing the first must neither publish nor
			// journal, and must not wait for the first.
			j.markCanceled(time.Now())
			if j.start(time.Now()) {
				t.Fatal("start succeeded behind a terminal transition in flight")
			}
			if how, seen := observedTerminal(j, sub); seen {
				t.Fatalf("%s after a racing second transition, with the first still journaling", how)
			}

			close(release)
			<-finished
			select {
			case <-j.Done():
			default:
				t.Fatal("done still open after the transition returned")
			}
			if got := j.Info(); !reflect.DeepEqual(got, journaled) {
				t.Fatalf("published info differs from the journaled record:\npublished: %+v\njournaled: %+v", got, journaled)
			}
			if len(entered) != 0 {
				t.Fatalf("a second terminal record was journaled: %+v", <-entered)
			}
		})
	}
}

// TestRacingFinalizeJournalsOnce lets the three terminal transitions race
// from many goroutines: exactly one record is journaled and it is the one
// the job ends up showing.
func TestRacingFinalizeJournalsOnce(t *testing.T) {
	for round := 0; round < 200; round++ {
		sc := &scenario{surface: KindBatch, name: "raced", hash: "8899aabbccddeeff", seed: 1}
		j := newJob("job-000001", SubmitRequest{}, sc, context.Background(), time.Now())
		var mu sync.Mutex
		var records []JobInfo
		j.onState = func(info JobInfo) {
			if info.Terminal() {
				mu.Lock()
				records = append(records, info)
				mu.Unlock()
			}
		}
		j.start(time.Now())
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				switch i % 3 {
				case 0:
					j.finish([]byte("{}"), false, time.Now())
				case 1:
					j.fail("boom", time.Now())
				default:
					j.markCanceled(time.Now())
				}
			}(i)
		}
		wg.Wait()
		<-j.Done()
		if len(records) != 1 {
			t.Fatalf("round %d: %d terminal records journaled, want 1: %+v", round, len(records), records)
		}
		if got := j.Info(); !reflect.DeepEqual(got, records[0]) {
			t.Fatalf("round %d: job shows %+v, journal holds %+v", round, got, records[0])
		}
	}
}

// TestJournalWriteBlockedWhileWaiterRestarts is the restart race end to
// end: the journal write of a durable daemon's terminal record is held
// back, a waiter does what a client does — waits for done, then restarts
// the daemon on the same journal — and the restarted daemon must know the
// job as done. The waiter cannot get ahead of the record because done
// stays open until the record is written.
func TestJournalWriteBlockedWhileWaiterRestarts(t *testing.T) {
	jdir, cacheDir := t.TempDir(), t.TempDir()
	srvA, err := NewDurable(durableOpts(jdir, "", cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	closeA := sync.OnceFunc(srvA.Close)
	defer closeA()
	req := SubmitRequest{Name: "durable-ordered", Config: resumeConfig(1_000), Seed: 5}
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		t.Fatalf("buildScenario: %v", apiErr)
	}
	j := newJob(srvA.jobs.nextID(), req, sc, srvA.sched.baseCtx, time.Now())
	entered, release := make(chan struct{}), make(chan struct{})
	letWrite := sync.OnceFunc(func() { close(release) })
	defer letWrite()
	j.onState = func(info JobInfo) {
		if info.Terminal() {
			close(entered)
			<-release
		}
		srvA.journalState(info)
	}
	srvA.jobs.add(j)
	srvA.journalSubmit(j)
	if apiErr := srvA.sched.submit(j); apiErr != nil {
		t.Fatalf("submit: %v", apiErr)
	}

	restarted := make(chan JobInfo, 1)
	go func() {
		<-j.Done()
		closeA()
		srvB, err := NewDurable(durableOpts(jdir, "", cacheDir))
		if err != nil {
			t.Error(err)
			restarted <- JobInfo{}
			return
		}
		defer srvB.Close()
		jB, ok := srvB.jobs.get(j.Info().ID)
		if !ok {
			t.Errorf("restarted daemon has no job %s", j.Info().ID)
			restarted <- JobInfo{}
			return
		}
		restarted <- jB.Info()
	}()

	select {
	case <-entered:
	case <-time.After(120 * time.Second):
		t.Fatal("the job never reached its terminal transition")
	}
	// The record is not written yet. Give the waiter every chance to run
	// ahead of it before letting the write through.
	select {
	case info := <-restarted:
		t.Fatalf("the waiter saw done and restarted the daemon before the terminal record was written; restored state %q", info.State)
	case <-time.After(200 * time.Millisecond):
	}
	letWrite()
	select {
	case info := <-restarted:
		if info.State != StateDone {
			t.Fatalf("restored job state = %q, want %s (no re-execution)", info.State, StateDone)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("the waiter never finished restarting")
	}
}

// TestTelemetryLateFirstSampleIsWithheld: the published telemetry stream
// is monotone in cycle. A run that migrates resumes from its last
// checkpoint, so the new executor's first samples are behind what the job
// already showed: they are withheld until the run has caught up.
func TestTelemetryLateFirstSampleIsWithheld(t *testing.T) {
	sc := &scenario{surface: KindConfig, name: "late-sample", hash: "0123456789abcdef", seed: 1}
	j := newJob("job-000001", SubmitRequest{}, sc, context.Background(), time.Now())
	j.start(time.Now())
	sub, unsub := j.subscribe()
	defer unsub()
	sample := func(cycle uint64) obs.TelemetrySnapshot {
		return obs.TelemetrySnapshot{Cycle: cycle,
			Tiles: []obs.TileTelemetry{{Tile: 0, FlitsInjected: cycle / 10}}}
	}
	steps := []struct {
		in   obs.TelemetrySnapshot
		want bool // published
	}{
		{sample(300), true},
		{sample(500), true},
		{sample(100), false}, // the migrated run's first sample, from its checkpoint
		{sample(400), false},
		{sample(500), true}, // caught up with the last published cycle
		{sample(900), true},
		{sample(650), false}, // migrated again
		{sample(1000), true},
	}
	var last uint64
	for i, step := range steps {
		j.setTelemetry(step.in)
		var got *obs.TelemetrySnapshot
		select {
		case ev := <-sub:
			if ev.Type != "telemetry" || ev.Telemetry == nil {
				t.Fatalf("step %d: unexpected event %+v", i, ev)
			}
			got = ev.Telemetry
		default:
		}
		switch {
		case !step.want && got != nil:
			t.Fatalf("step %d: frame at cycle %d published, want it withheld (stream is at %d)", i, got.Cycle, last)
		case step.want && got == nil:
			t.Fatalf("step %d: frame withheld, want cycle %d", i, step.in.Cycle)
		case got != nil:
			if got.Cycle != step.in.Cycle || len(got.Tiles) != 1 {
				t.Fatalf("step %d: frame cycle %d with %d tiles, want cycle %d with 1 tile", i, got.Cycle, len(got.Tiles), step.in.Cycle)
			}
			last = got.Cycle
		}
		if info := j.Info(); info.Telemetry == nil || info.Telemetry.Cycle != last {
			t.Fatalf("step %d: job info shows telemetry %+v, the stream is at cycle %d", i, info.Telemetry, last)
		}
	}
}
