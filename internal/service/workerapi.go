package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hornet/internal/service/backend"
	"hornet/internal/snapshot"
)

// Worker-fleet protocol handlers. These are the coordinator half of the
// hornet-worker conversation; the worker half lives in
// internal/service/worker. Errors map onto the job API's envelope:
// an unknown worker is 404 worker_unknown (the worker re-registers), a
// push for a task no longer assigned is 410 task_gone (the worker
// abandons the run).

// Error codes specific to the worker protocol.
const (
	CodeWorkerUnknown = "worker_unknown"
	CodeTaskGone      = "task_gone"
)

// maxCheckpointBlob bounds one uploaded snapshot blob (full-system
// states are hundreds of KB to a few MB; a 4096-node mesh stays well
// under this).
const maxCheckpointBlob = 256 << 20

func (s *Server) writeFleetError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, backend.ErrUnknownWorker):
		writeError(w, http.StatusNotFound, &APIError{Code: CodeWorkerUnknown, Message: err.Error()})
	case errors.Is(err, backend.ErrGone):
		writeError(w, http.StatusGone, &APIError{Code: CodeTaskGone, Message: err.Error()})
	case errors.Is(err, backend.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, &APIError{Code: CodeShuttingDown, Message: err.Error()})
	default:
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeInvalidRequest, Message: err.Error()})
	}
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fleet.WorkersInfo())
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req backend.RegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeInvalidRequest,
			Message: "malformed register body: " + err.Error()})
		return
	}
	if req.ID != "" && !nameRE.MatchString(req.ID) {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeInvalidRequest,
			Message: "worker id must match [a-zA-Z0-9._-]{1,64}"})
		return
	}
	resp, err := s.fleet.Register(req)
	if err != nil {
		s.writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	if err := s.fleet.Deregister(r.PathValue("id")); err != nil {
		s.writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deregistered"})
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	resp, err := s.fleet.Heartbeat(r.PathValue("id"))
	if err != nil {
		s.writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleWorkerPoll long-polls for the worker's next assignment
// (?wait=25s); 200 carries an Assignment, 204 means "nothing yet, poll
// again".
func (s *Server) handleWorkerPoll(w http.ResponseWriter, r *http.Request) {
	wait := 25 * time.Second
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, &APIError{Code: CodeInvalidRequest,
				Message: fmt.Sprintf("bad wait duration %q", waitStr)})
			return
		}
		if d > 5*time.Minute {
			d = 5 * time.Minute
		}
		wait = d
	}
	a, err := s.fleet.Poll(r.Context(), r.PathValue("id"), wait)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away mid-poll
		}
		s.writeFleetError(w, err)
		return
	}
	if a == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, a)
}

func (s *Server) handleWorkerEvent(w http.ResponseWriter, r *http.Request) {
	var ev backend.TaskEvent
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&ev); err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeInvalidRequest,
			Message: "malformed event body: " + err.Error()})
		return
	}
	if err := s.fleet.PushEvent(r.PathValue("id"), r.PathValue("task"), ev); err != nil {
		s.writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleWorkerCheckpoint receives one snapshot blob as the raw request
// body (no JSON/base64 overhead); ?cycle= carries the snapshot clock.
func (s *Server) handleWorkerCheckpoint(w http.ResponseWriter, r *http.Request) {
	cycle, _ := strconv.ParseUint(r.URL.Query().Get("cycle"), 10, 64)
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCheckpointBlob))
	if err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeInvalidRequest,
			Message: "reading checkpoint blob: " + err.Error()})
		return
	}
	// Admission check: a blob that fails the container envelope (magic,
	// version, CRC) can never resume anything — reject it here so a
	// corrupting transport is visible at upload time, not mid-migration.
	if err := snapshot.Verify(blob); err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeInvalidRequest,
			Message: "checkpoint blob rejected: " + err.Error()})
		return
	}
	if err := s.fleet.PushCheckpoint(r.PathValue("id"), r.PathValue("task"),
		r.PathValue("key"), cycle, blob); err != nil {
		s.writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleWorkerCheckpointDrop(w http.ResponseWriter, r *http.Request) {
	if err := s.fleet.DropCheckpoint(r.PathValue("id"), r.PathValue("task"),
		r.PathValue("key")); err != nil {
		s.writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleWorkerResult(w http.ResponseWriter, r *http.Request) {
	var res backend.ResultPush
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCheckpointBlob))
	if err := dec.Decode(&res); err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeInvalidRequest,
			Message: "malformed result body: " + err.Error()})
		return
	}
	if err := s.fleet.PushResult(r.PathValue("id"), r.PathValue("task"), res); err != nil {
		s.writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
