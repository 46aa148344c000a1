package service

// Durable-coordinator support: the journaling hooks that feed the
// write-ahead log and the replay machinery that rebuilds the job store
// from it after a restart.
//
// Lock-ordering rule: every journal append happens OUTSIDE job.mu.
// State transitions journal through the job's onState hook, which
// start/finalize invoke after unlocking; the fleet's Journal callbacks
// run outside the fleet lock and take-and-release job.mu (noteAssigned/
// noteStable) before appending. Compaction's snapshot callback runs
// under the journal lock and takes job.mu (Info, remoteFacts) — safe
// precisely because nothing appends while holding job.mu.

import (
	"encoding/json"
	"errors"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"hornet/internal/obs"
	"hornet/internal/service/backend"
	"hornet/internal/service/journal"
)

// serverJournal adapts the Server to the fleet's backend.Journal hook:
// assignment and stable-promotion facts are mirrored onto the job (for
// compaction) and appended to the WAL. Called by the fleet outside its
// lock.
type serverJournal struct{ s *Server }

func (sj serverJournal) Assigned(jobID, taskID string, slots int) {
	if j, ok := sj.s.jobs.get(jobID); ok {
		j.noteAssigned(taskID, slots)
	}
	sj.s.journalAppend(journal.Record{Type: journal.TypeAssign, Job: jobID, Task: taskID, Slots: slots})
}

func (sj serverJournal) StablePromoted(jobID string, epoch int, cycle uint64, keys []string) {
	if j, ok := sj.s.jobs.get(jobID); ok {
		j.noteStable(epoch, cycle, keys)
	}
	sj.s.journalAppend(journal.Record{Type: journal.TypeStable, Job: jobID,
		Epoch: epoch, Cycle: cycle, Keys: keys})
}

// journalAppend writes one record and schedules a background compaction
// when the journal reports one due (the log has doubled since the last
// one; see package journal). Append failures degrade to a counted
// warning: the daemon keeps serving, merely less durable — the same
// posture as a failed checkpoint write.
func (s *Server) journalAppend(r journal.Record) {
	if s.jrnl == nil {
		return
	}
	due, err := s.jrnl.AppendDue(r)
	if err != nil {
		if errors.Is(err, journal.ErrClosed) {
			return // shutdown path: drain-time records are dropped on purpose
		}
		s.journalErrs.Add(1)
		s.log.Warn("journal append failed", slog.String(obs.KeyComponent, "journal"),
			slog.String("type", r.Type), obs.Err(err))
		return
	}
	if due && s.compacting.CompareAndSwap(false, true) {
		go func() {
			defer s.compacting.Store(false)
			if err := s.jrnl.Compact(s.compactRecords); err != nil && !errors.Is(err, journal.ErrClosed) {
				s.journalErrs.Add(1)
				s.log.Warn("journal compaction failed",
					slog.String(obs.KeyComponent, "journal"), obs.Err(err))
			}
		}()
	}
}

// journalSubmit records a job's admission: the verbatim request (replay
// re-validates it through buildScenario like any submission) plus the
// client-visible info snapshot.
func (s *Server) journalSubmit(j *job) {
	if s.jrnl == nil {
		return
	}
	info, err := json.Marshal(j.Info())
	if err != nil {
		return
	}
	req, err := json.Marshal(j.req)
	if err != nil {
		return
	}
	s.journalAppend(journal.Record{Type: journal.TypeSubmit, Job: j.Info().ID,
		Request: req, Info: info})
}

// journalState is the job onState hook: every transition appends the
// fresh info snapshot, and a done job additionally records its
// result-cache key so replay can refault the document instead of
// re-running the scenario.
func (s *Server) journalState(info JobInfo) {
	b, err := json.Marshal(info)
	if err != nil {
		return
	}
	s.journalAppend(journal.Record{Type: journal.TypeState, Job: info.ID, Info: b})
	if info.State == StateDone {
		s.journalAppend(journal.Record{Type: journal.TypeResult, Job: info.ID,
			Name: info.Name, Hash: info.ConfigHash})
	}
}

// compactRecords snapshots live state as a minimal record stream: one
// submit record per job carrying its CURRENT info (replay folds info
// last-write-wins, so no separate state records are needed), plus the
// job's latest fleet facts and, for done jobs, the result-cache key.
// Jobs the retention TTL already expired simply drop out of the log;
// their cached result documents survive in the result store.
func (s *Server) compactRecords() []journal.Record {
	var recs []journal.Record
	for _, j := range s.jobs.all() {
		info := j.Info()
		ib, err := json.Marshal(info)
		if err != nil {
			continue
		}
		rb, err := json.Marshal(j.req)
		if err != nil {
			continue
		}
		recs = append(recs, journal.Record{Type: journal.TypeSubmit, Job: info.ID,
			Request: rb, Info: ib})
		rf := j.remoteFacts()
		if rf.taskID != "" {
			recs = append(recs, journal.Record{Type: journal.TypeAssign, Job: info.ID,
				Task: rf.taskID, Slots: rf.slots})
		}
		if len(rf.stableKeys) > 0 {
			recs = append(recs, journal.Record{Type: journal.TypeStable, Job: info.ID,
				Epoch: rf.stableEpoch, Cycle: rf.stableCycle, Keys: rf.stableKeys})
		}
		if info.State == StateDone {
			recs = append(recs, journal.Record{Type: journal.TypeResult, Job: info.ID,
				Name: info.Name, Hash: info.ConfigHash})
		}
	}
	return recs
}

// replayJob is the per-job fold of the journal's record stream: the
// last-written value of each fact group.
type replayJob struct {
	req        json.RawMessage
	info       JobInfo
	haveInfo   bool
	taskID     string
	slots      int
	stableCy   uint64
	stableKeys []string
}

// restore rebuilds the job store from replayed journal records, called
// once during construction, before the HTTP surface is up. Terminal
// jobs restore in place (done ones refault their document from the
// result cache); everything else re-enqueues, seeded with the newest
// persisted checkpoints, and plain fleet jobs additionally arm the
// reattach table so the pre-crash worker can re-adopt the execution.
func (s *Server) restore(recs []journal.Record) {
	byJob := map[string]*replayJob{}
	var order []string
	for _, r := range recs {
		if r.Job == "" {
			continue
		}
		rj := byJob[r.Job]
		if rj == nil {
			rj = &replayJob{}
			byJob[r.Job] = rj
			order = append(order, r.Job)
		}
		switch r.Type {
		case journal.TypeSubmit:
			if len(r.Request) > 0 {
				rj.req = r.Request
			}
			if len(r.Info) > 0 && json.Unmarshal(r.Info, &rj.info) == nil {
				rj.haveInfo = true
			}
		case journal.TypeState:
			if len(r.Info) > 0 && json.Unmarshal(r.Info, &rj.info) == nil {
				rj.haveInfo = true
			}
		case journal.TypeAssign:
			rj.taskID, rj.slots = r.Task, r.Slots
		case journal.TypeStable:
			rj.stableCy = r.Cycle
			rj.stableKeys = append([]string(nil), r.Keys...)
		case journal.TypeResult:
			// Redundant with the done info snapshot (Name/ConfigHash);
			// kept for forward compatibility of the record stream.
		}
	}
	maxJob, maxTask := 0, 0
	for _, id := range order {
		rj := byJob[id]
		if n, ok := trailingSeq(id, "job-"); ok && n > maxJob {
			maxJob = n
		}
		if n, ok := taskSeq(rj.taskID); ok && n > maxTask {
			maxTask = n
		}
		s.restoreJob(id, rj)
	}
	// Seq floors advance AFTER the per-job loop so replayed IDs can never
	// collide with freshly minted ones.
	s.jobs.setSeqFloor(maxJob)
	s.fleet.SetSeqFloor(maxTask)
	if n := len(order); n > 0 {
		s.log.Info("journal replayed", slog.String(obs.KeyComponent, "journal"),
			slog.Int("jobs", n), slog.Int("records", len(recs)))
	}
}

// restoreJob rebuilds one job from its folded journal facts.
func (s *Server) restoreJob(id string, rj *replayJob) {
	if !rj.haveInfo || len(rj.req) == 0 {
		return // torn submit: nothing replayable
	}
	var req SubmitRequest
	if err := json.Unmarshal(rj.req, &req); err != nil {
		s.log.Warn("journal replay: unreadable request", obs.Job(id), obs.Err(err))
		return
	}
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		s.log.Warn("journal replay: request no longer validates", obs.Job(id),
			slog.String("error", apiErr.Message))
		return
	}
	info := rj.info
	j := newJob(id, req, sc, s.sched.baseCtx, time.Now())
	j.trace.SetCap(s.traceCap)
	j.onState = s.journalState
	if !info.Created.IsZero() {
		j.info.Created = info.Created
	}
	if info.Terminal() {
		if info.State == StateDone {
			if b, ok := s.results.Get(info.Name, info.ConfigHash); ok {
				j.restoreTerminal(info, b)
				s.jobs.add(j)
				s.jobsRestored.Add(1)
				return
			}
			// The cache lost the document (memory-only tier, or the disk
			// tier was wiped): fall through and re-enqueue — a done record
			// whose result 404s forever helps nobody.
		} else {
			j.restoreTerminal(info, nil)
			s.jobs.add(j)
			s.jobsRestored.Add(1)
			return
		}
	}

	// In-flight (or done-with-lost-result): re-enqueue, seeded with the
	// newest persisted checkpoints. Only a remote worker's task waits for
	// its re-claim (Fleet.Execute): in-process runs are never journaled.
	weight := rj.slots
	if weight < 1 {
		weight = req.Workers
	}
	j.restore = &restoreState{
		taskID:      rj.taskID,
		checkpoints: s.restoreBlobs(sc, rj),
	}
	s.jobs.add(j)
	s.jobsRestored.Add(1)
	if rj.taskID != "" && sc.shards < 2 {
		// Sharded member executions always restart from the group's
		// stable set (the rollback machinery stays authoritative), so
		// only plain tasks arm the re-adoption table.
		s.fleet.ExpectReattach(rj.taskID, id, weight)
	}
	if apiErr := s.sched.submit(j); apiErr != nil {
		j.fail(apiErr.Message, time.Now())
		j.cancel()
	}
}

// restoreBlobs loads the checkpoint blobs a restored job resumes from.
// Plain jobs take every run's newest persisted snapshot; sharded jobs
// take the journaled promoted stable set — and only a COMPLETE one, a
// partial set would seed members at mismatched cycles.
func (s *Server) restoreBlobs(sc *scenario, rj *replayJob) map[string]backend.Blob {
	store := s.env.store
	if store == nil {
		return nil
	}
	out := map[string]backend.Blob{}
	if sc.shards >= 2 {
		if len(rj.stableKeys) != sc.shards {
			return nil
		}
		for _, key := range rj.stableKeys {
			b, ok := store.Load(key)
			if !ok {
				return nil
			}
			out[key] = backend.Blob{Cycle: rj.stableCy, Data: b}
		}
		return out
	}
	for _, spec := range sc.runs {
		key := CheckpointKey(sc.name, sc.hash, spec.key)
		if b, ok := store.Load(key); ok {
			out[key] = backend.Blob{Data: b}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// trailingSeq parses the numeric suffix of "<prefix><digits>" IDs.
func trailingSeq(id, prefix string) (int, bool) {
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(id[len(prefix):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// taskSeq parses the fleet sequence number out of a task ID, accepting
// both plain ("task-000007") and sharded-member ("task-000007-s1") forms.
func taskSeq(id string) (int, bool) {
	if id == "" {
		return 0, false
	}
	const prefix = "task-"
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	rest := id[len(prefix):]
	if i := strings.Index(rest, "-s"); i >= 0 {
		rest = rest[:i]
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
