package controlapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"painter/internal/obs"
	"painter/internal/tenant"
)

func tenantServer(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	s := New(getEnv(t), "")
	s.Tenants = tenant.NewManager(tenant.Params{ReconcileInterval: time.Hour})
	t.Cleanup(s.Tenants.Close)
	return s, s.Handler()
}

func putTenant(t *testing.T, h http.Handler, id string, spec any, ifMatch string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("PUT", "/tenants/"+id, strings.NewReader(string(body)))
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func specSmall(seed int64) tenant.Spec {
	return tenant.Spec{
		Scale: "small", Seed: seed, TickMs: 1, Paused: true,
		Chaos: tenant.ChaosSpec{Profile: "default", Seed: seed + 100, Ticks: 5},
	}
}

func TestTenantPutGetDelete(t *testing.T) {
	s, h := tenantServer(t)

	rec := putTenant(t, h, "acme", specSmall(7), "")
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	var created TenantJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Generation != 1 || rec.Header().Get("ETag") != "1" {
		t.Errorf("created = %+v etag=%q", created, rec.Header().Get("ETag"))
	}

	// Update is 200 and bumps the generation.
	rec = putTenant(t, h, "acme", specSmall(7), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("update = %d", rec.Code)
	}

	s.Tenants.Reconcile()
	var got TenantJSON
	r2 := do(t, h, "GET", "/tenants/acme", nil, &got)
	if r2.Code != http.StatusOK || got.Phase != tenant.PhasePaused || got.Status == nil {
		t.Errorf("get = %d %+v", r2.Code, got)
	}

	var list []TenantJSON
	do(t, h, "GET", "/tenants", nil, &list)
	if len(list) != 1 || list[0].ID != "acme" {
		t.Errorf("list = %+v", list)
	}

	var status tenant.Status
	do(t, h, "GET", "/tenants/acme/status", nil, &status)
	if status.ID != "acme" || status.Prefixes == 0 {
		t.Errorf("status = %+v", status)
	}

	var reports []tenant.SyncRecord
	do(t, h, "GET", "/tenants/acme/reports", nil, &reports)

	req := httptest.NewRequest("DELETE", "/tenants/acme", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete = %d", rec.Code)
	}
	req = httptest.NewRequest("DELETE", "/tenants/acme", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("second delete = %d, want 404", rec.Code)
	}
}

func TestTenantPutValidation(t *testing.T) {
	_, h := tenantServer(t)

	// Bad spec: field-level errors in the payload.
	bad := map[string]any{"scale": "galactic", "tick_ms": 0, "budget": -1}
	rec := putTenant(t, h, "acme", bad, "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("code = %d", rec.Code)
	}
	var errJSON struct {
		Error  string              `json:"error"`
		Fields []tenant.FieldError `json:"fields"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &errJSON); err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	for _, f := range errJSON.Fields {
		fields[f.Field] = true
	}
	for _, want := range []string{"scale", "tick_ms", "budget"} {
		if !fields[want] {
			t.Errorf("missing field error %q in %v", want, errJSON.Fields)
		}
	}

	// Unknown JSON fields are rejected, not silently dropped.
	rec = putTenant(t, h, "acme", map[string]any{"scale": "small", "tick_ms": 1, "bogus": true}, "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", rec.Code)
	}

	// A body past the size limit is refused and creates nothing, even
	// when it would decode to a valid spec.
	req := httptest.NewRequest("PUT", "/tenants/acme",
		oversizedBody(`"scale":"small","seed":1,"tick_ms":1,"paused":true}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec = %d, want 413", rec.Code)
	}
	if rec := do(t, h, "GET", "/tenants/acme", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("oversized spec created a tenant: GET = %d", rec.Code)
	}

	// Bad tenant ID.
	rec = putTenant(t, h, "Bad%20Id", specSmall(1), "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad id = %d", rec.Code)
	}

	// Unknown tenant paths 404.
	for _, p := range []string{"/tenants/nope", "/tenants/nope/status", "/tenants/nope/reports"} {
		if rec := do(t, h, "GET", p, nil, nil); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", p, rec.Code)
		}
	}
}

func TestTenantPutGenerationConflict(t *testing.T) {
	_, h := tenantServer(t)
	rec := putTenant(t, h, "acme", specSmall(7), "")
	if rec.Code != http.StatusCreated {
		t.Fatal(rec.Code)
	}
	// Conditional update at generation 1 wins...
	rec = putTenant(t, h, "acme", specSmall(7), "1")
	if rec.Code != http.StatusOK {
		t.Fatalf("conditional update = %d", rec.Code)
	}
	// ...and a second writer still holding 1 conflicts.
	rec = putTenant(t, h, "acme", specSmall(8), "1")
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale If-Match = %d, want 409", rec.Code)
	}
	var conflict struct {
		Error    string `json:"error"`
		Expected int64  `json:"expected"`
		Current  int64  `json:"current"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &conflict); err != nil {
		t.Fatal(err)
	}
	if conflict.Expected != 1 || conflict.Current != 2 {
		t.Errorf("conflict payload = %+v", conflict)
	}
	// Malformed If-Match is a 400.
	rec = putTenant(t, h, "acme", specSmall(7), "latest")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad If-Match = %d", rec.Code)
	}
}

// TestTenantMetricsLabeled scrapes /metrics and asserts each running
// tenant's series carry its tenant label, and that they vanish after
// deletion.
func TestTenantMetricsLabeled(t *testing.T) {
	s, h := tenantServer(t)
	for _, id := range []string{"red", "blue"} {
		if rec := putTenant(t, h, id, specSmall(int64(len(id))), ""); rec.Code != http.StatusCreated {
			t.Fatal(rec.Code)
		}
	}
	s.Tenants.Reconcile()

	scrape := func() map[string]bool {
		rec := do(t, h, "GET", "/metrics", nil, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics = %d", rec.Code)
		}
		ms, err := obs.ParseText(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for series := range ms {
			for _, id := range []string{"red", "blue"} {
				if strings.Contains(series, `tenant="`+id+`"`) {
					seen[id] = true
				}
			}
		}
		return seen
	}
	seen := scrape()
	if !seen["red"] || !seen["blue"] {
		t.Fatalf("tenant labels missing from /metrics: %v", seen)
	}

	req := httptest.NewRequest("DELETE", "/tenants/red", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	s.Tenants.Reconcile()
	seen = scrape()
	if seen["red"] || !seen["blue"] {
		t.Errorf("after delete: %v", seen)
	}
}
