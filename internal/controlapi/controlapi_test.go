package controlapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"painter/internal/experiments"
	"painter/internal/routeserver"
)

var testEnv *experiments.Env

func getEnv(t *testing.T) *experiments.Env {
	t.Helper()
	if testEnv == nil {
		e, err := experiments.NewEnv(experiments.ScaleSmall, 7)
		if err != nil {
			t.Fatal(err)
		}
		testEnv = e
	}
	return testEnv
}

func do(t *testing.T, h http.Handler, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s %s: %v (body %q)", method, path, err, rec.Body.String())
		}
	}
	return rec
}

func TestStatusEndpoint(t *testing.T) {
	s := New(getEnv(t), "")
	var st StatusResponse
	rec := do(t, s.Handler(), "GET", "/status", nil, &st)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if st.PoPs == 0 || st.Peerings == 0 || st.UserGroups == 0 {
		t.Errorf("empty status %+v", st)
	}
	if st.Prefixes != 0 {
		t.Errorf("unsolved server should report 0 prefixes")
	}
}

func TestSolveConfigEvaluateFlow(t *testing.T) {
	s := New(getEnv(t), "")
	h := s.Handler()

	var sr SolveResponse
	rec := do(t, h, "POST", "/solve", SolveRequest{Budget: 4, Iterations: 1}, &sr)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve = %d: %s", rec.Code, rec.Body.String())
	}
	if sr.Prefixes == 0 || sr.Prefixes > 4 {
		t.Errorf("solved %d prefixes", sr.Prefixes)
	}

	var cfg []PrefixJSON
	do(t, h, "GET", "/config", nil, &cfg)
	if len(cfg) != sr.Prefixes {
		t.Errorf("config has %d prefixes, solve said %d", len(cfg), sr.Prefixes)
	}
	for _, p := range cfg {
		if len(p.Peerings) == 0 {
			t.Errorf("prefix %s has no peerings", p.Prefix)
		}
	}

	var ev EvaluateResponse
	do(t, h, "GET", "/evaluate", nil, &ev)
	if ev.BenefitMs <= 0 {
		t.Errorf("benefit = %v, want positive", ev.BenefitMs)
	}
	if ev.FractionOfPossible <= 0 || ev.FractionOfPossible > 1 {
		t.Errorf("fraction = %v", ev.FractionOfPossible)
	}

	var reps []ReportJSON
	do(t, h, "GET", "/reports", nil, &reps)
	if len(reps) != sr.Iterations {
		t.Errorf("reports = %d, want %d", len(reps), sr.Iterations)
	}
}

func TestSolveValidation(t *testing.T) {
	s := New(getEnv(t), "")
	h := s.Handler()
	if rec := do(t, h, "POST", "/solve", SolveRequest{Budget: 0}, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("budget 0 = %d, want 400", rec.Code)
	}
	req := httptest.NewRequest("POST", "/solve", bytes.NewBufferString("{not json"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad json = %d, want 400", rec.Code)
	}
	// Wrong method is routed away by the mux.
	if rec := do(t, h, "GET", "/solve", nil, nil); rec.Code == http.StatusOK {
		t.Error("GET /solve should not succeed")
	}
	// A body past the size limit is refused before any solve runs, even
	// when it would decode to a valid request.
	req = httptest.NewRequest("POST", "/solve", oversizedBody(`"budget":4,"iterations":1}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", rec.Code)
	}
	var st StatusResponse
	if do(t, h, "GET", "/status", nil, &st); st.Prefixes != 0 {
		t.Errorf("oversized /solve ran a solve: %d prefixes", st.Prefixes)
	}
}

// oversizedBody is a JSON object that decodes like "{"+rest but is
// padded with whitespace to twice the API's body limit.
func oversizedBody(rest string) io.Reader {
	return strings.NewReader("{" + strings.Repeat(" ", 2*maxBodyBytes) + rest)
}

func TestSolveAnnouncesToRouteServer(t *testing.T) {
	rs, err := routeserver.New(routeserver.Config{
		ListenAddr: "127.0.0.1:0", LocalAS: 64999, BGPID: 1, HoldTime: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	s := New(getEnv(t), rs.Addr())
	var sr SolveResponse
	rec := do(t, s.Handler(), "POST", "/solve", SolveRequest{Budget: 3, Iterations: 1}, &sr)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve = %d: %s", rec.Code, rec.Body.String())
	}
	if !sr.Announced {
		t.Fatal("solve did not announce")
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && rs.RIB().Size() != sr.Prefixes {
		time.Sleep(5 * time.Millisecond)
	}
	if rs.RIB().Size() != sr.Prefixes {
		t.Errorf("route server learned %d prefixes, want %d", rs.RIB().Size(), sr.Prefixes)
	}
}

func TestPrefixForIndex(t *testing.T) {
	if got := prefixForIndex(0).String(); got != "10.0.0.0/24" {
		t.Errorf("index 0 = %s", got)
	}
	if got := prefixForIndex(300).String(); got != "10.1.44.0/24" {
		t.Errorf("index 300 = %s", got)
	}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		p := prefixForIndex(i).String()
		if seen[p] {
			t.Fatalf("prefix collision at %d: %s", i, p)
		}
		seen[p] = true
	}
}
