package service

import (
	"net/http"

	scen "hornet/internal/scenario"
)

// DryRun compiles a submission exactly as POST /api/v1/jobs would —
// same validation, same normalization, same content address — without
// enqueueing anything. It backs POST /api/v1/validate and hornet-exp's
// -validate flag: clients can confirm a document is well-formed, see
// the machine it normalizes to, and learn the cache key it would hit,
// all before spending simulation time.
func DryRun(req SubmitRequest) (*ValidateResponse, *APIError) {
	sc, apiErr := buildScenario(req)
	if apiErr != nil {
		return nil, apiErr
	}
	resp := &ValidateResponse{
		Kind:        sc.surface,
		Name:        sc.name,
		ConfigHash:  sc.hash,
		CacheKey:    sc.name + "-" + sc.hash,
		Seed:        sc.seed,
		Cacheable:   sc.cacheable,
		RunsTotal:   len(sc.runs),
		Shards:      sc.shards,
		ShareWarmup: sc.shareWarmup,
	}
	for _, r := range sc.runs {
		resp.RunKeys = append(resp.RunKeys, r.key)
	}
	if sc.normalized != nil {
		if b, err := scen.Encode(sc.normalized); err == nil {
			resp.Normalized = b
		}
	}
	return resp, nil
}

// handleValidate is POST /api/v1/validate: DryRun over the same request
// body POST /api/v1/jobs takes.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeSubmit(w, r)
	if !ok {
		return
	}
	resp, apiErr := DryRun(req)
	if apiErr != nil {
		writeError(w, http.StatusBadRequest, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
