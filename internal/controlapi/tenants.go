package controlapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"painter/internal/tenant"
)

// Tenant API:
//
//	GET    /tenants              list desired specs + observed phase
//	PUT    /tenants/{id}         submit a spec (If-Match: <generation>
//	                             for optimistic concurrency)
//	GET    /tenants/{id}         stored spec + observed status
//	DELETE /tenants/{id}         remove the tenant (teardown on next
//	                             reconcile)
//	GET    /tenants/{id}/status  observed runtime state
//	GET    /tenants/{id}/reports bounded per-tick sync history
//
// Validation failures come back as 400 with one entry per bad field;
// generation conflicts as 409 with the expected and current numbers.

// TenantJSON is one /tenants list entry: the desired record plus the
// observed phase ("Pending" until the reconcile loop has built the
// runtime).
type TenantJSON struct {
	ID         string         `json:"id"`
	Generation int64          `json:"generation"`
	Spec       tenant.Spec    `json:"spec"`
	Phase      tenant.Phase   `json:"phase"`
	Status     *tenant.Status `json:"status,omitempty"`
}

func (s *Server) tenantJSON(st tenant.Stored, withStatus bool) TenantJSON {
	out := TenantJSON{ID: st.ID, Generation: st.Generation, Spec: st.Spec, Phase: "Pending"}
	if ts, ok := s.Tenants.Status(st.ID); ok {
		out.Phase = ts.Phase
		if withStatus {
			out.Status = &ts
		}
	}
	return out
}

func (s *Server) handleTenantsList(w http.ResponseWriter, _ *http.Request) {
	stored := s.Tenants.Store().List()
	out := make([]TenantJSON, 0, len(stored))
	for _, st := range stored {
		out = append(out, s.tenantJSON(st, false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Tenants.Store().Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return
	}
	writeJSON(w, http.StatusOK, s.tenantJSON(st, true))
}

// tenantErrJSON is the error payload: always "error", plus "fields"
// for validation failures and expected/current for generation races.
type tenantErrJSON struct {
	Error    string              `json:"error"`
	Fields   []tenant.FieldError `json:"fields,omitempty"`
	Expected int64               `json:"expected,omitempty"`
	Current  int64               `json:"current,omitempty"`
}

func (s *Server) handleTenantPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var expect int64
	if im := strings.TrimSpace(r.Header.Get("If-Match")); im != "" {
		v, err := strconv.ParseInt(strings.Trim(im, `"`), 10, 64)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("If-Match must be a positive generation number, got %q", im))
			return
		}
		expect = v
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var spec tenant.Spec
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, bodyErrStatus(err), fmt.Errorf("bad spec: %w", err))
		return
	}
	created := false
	if _, ok := s.Tenants.Store().Get(id); !ok {
		created = true
	}
	st, err := s.Tenants.Apply(id, spec, expect)
	if err != nil {
		var verr *tenant.ValidationError
		var cerr *tenant.ConflictError
		switch {
		case errors.As(err, &verr):
			writeJSON(w, http.StatusBadRequest,
				tenantErrJSON{Error: verr.Error(), Fields: verr.Fields})
		case errors.As(err, &cerr):
			writeJSON(w, http.StatusConflict,
				tenantErrJSON{Error: cerr.Error(), Expected: cerr.Expected, Current: cerr.Current})
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	w.Header().Set("ETag", strconv.FormatInt(st.Generation, 10))
	writeJSON(w, code, s.tenantJSON(st, false))
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Tenants.Remove(id) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleTenantStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Tenants.Status(id)
	if !ok {
		if _, stored := s.Tenants.Store().Get(id); stored {
			// Accepted but not yet reconciled into a runtime.
			writeJSON(w, http.StatusOK, map[string]string{"id": id, "phase": "Pending"})
			return
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleTenantReports(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	reps, ok := s.Tenants.Reports(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return
	}
	if reps == nil {
		reps = []tenant.SyncRecord{}
	}
	writeJSON(w, http.StatusOK, reps)
}
