// Package controlapi exposes the Advertisement Orchestrator over HTTP —
// the control surface an operator (or cmd/painterd) uses to compute,
// inspect, install, and evaluate advertisement configurations.
//
//	GET  /status    deployment + current configuration summary
//	POST /solve     {"budget":25,"reuse_km":3000,"iterations":2}
//	GET  /config    current configuration (prefix → peerings)
//	GET  /evaluate  ground-truth benefit of the current configuration
//	GET  /reports   per-iteration learning reports
//	GET  /metrics   Prometheus text exposition (orchestrator + netsim +
//	                every tenant's registries, labeled tenant="<id>")
//	GET  /debug/obs merged obs snapshot as JSON
//
// When Server.Tenants is set, the multi-tenant control plane mounts
// under /tenants (see tenants.go for the route list).
package controlapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"time"

	"painter/internal/advertise"
	"painter/internal/bgp"
	"painter/internal/core"
	"painter/internal/experiments"
	"painter/internal/obs"
	"painter/internal/obs/history"
	"painter/internal/obs/span"
	"painter/internal/tenant"
)

// Server holds the orchestrator state behind the HTTP API.
type Server struct {
	Env *experiments.Env
	// RouteServer, when non-empty, receives a BGP announcement of every
	// newly solved configuration.
	RouteServer string
	// AnnounceTimeout bounds the BGP install.
	AnnounceTimeout time.Duration
	// Trace, when non-nil, traces each solve end to end (per-iteration,
	// per-prefix placement, and netsim resolve spans) and backs GET
	// /debug/trace with its flight recorder. Set before Handler().
	Trace *span.Tracer
	// Pprof mounts net/http/pprof under /debug/pprof/ on the handler
	// when true. Set before Handler().
	Pprof bool
	// Tenants, when non-nil, mounts the multi-tenant control plane
	// under /tenants and merges every tenant's registries into /metrics
	// and /debug/obs on each scrape. Set before Handler().
	Tenants *tenant.Manager
	// obs is the server's metric registry: solve-loop and propagate
	// metrics land here; /metrics also merges the world's registry.
	obs *obs.Registry

	mu      sync.Mutex
	cfg     advertise.Config
	reports []core.IterationReport
	// rs is the persistent announce session: BGP routes live only as
	// long as the session, so it is dialed lazily and kept open.
	rs *bgp.Speaker
}

// New creates a Server over an environment.
func New(env *experiments.Env, routeServer string) *Server {
	s := &Server{
		Env: env, RouteServer: routeServer, AnnounceTimeout: 5 * time.Second,
		obs: obs.NewRegistry(),
	}
	// Route bgp.Propagate timings into this server's registry so a
	// /metrics scrape during a live solve sees propagation histograms.
	bgp.InstrumentPropagate(s.obs)
	return s
}

// Obs returns the server's metric registry (for embedding daemons that
// want to add their own instruments to the same exposition).
func (s *Server) Obs() *obs.Registry { return s.obs }

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("GET /config", s.handleConfig)
	mux.HandleFunc("GET /evaluate", s.handleEvaluate)
	mux.HandleFunc("GET /reports", s.handleReports)
	// The registry list is re-collected on every scrape: tenants come
	// and go at runtime, and each brings registries of its own.
	regs := func() []*obs.Registry {
		out := []*obs.Registry{s.obs}
		if s.Env != nil && s.Env.World != nil {
			out = append(out, s.Env.World.Obs())
		}
		if s.Tenants != nil {
			out = append(out, s.Tenants.Registries()...)
		}
		return out
	}
	mux.Handle("GET /metrics", obs.DynamicHandler(regs))
	mux.Handle("GET /debug/obs", obs.DynamicJSONHandler(regs))
	if s.Tenants != nil {
		mux.HandleFunc("GET /tenants", s.handleTenantsList)
		mux.HandleFunc("PUT /tenants/{id}", s.handleTenantPut)
		mux.HandleFunc("GET /tenants/{id}", s.handleTenantGet)
		mux.HandleFunc("DELETE /tenants/{id}", s.handleTenantDelete)
		mux.HandleFunc("GET /tenants/{id}/status", s.handleTenantStatus)
		mux.HandleFunc("GET /tenants/{id}/reports", s.handleTenantReports)
		mux.HandleFunc("GET /alerts", s.handleAlerts)
		mux.Handle("GET /debug/obs/history", history.Handler(s.Tenants.Histories))
	}
	mux.Handle("GET /debug/trace", span.Handler(s.Trace))
	if s.Pprof {
		obs.MountPprof(mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// StatusResponse is the /status payload.
type StatusResponse struct {
	PoPs            int `json:"pops"`
	Peerings        int `json:"peerings"`
	TransitPeerings int `json:"transit_peerings"`
	UserGroups      int `json:"user_groups"`
	Prefixes        int `json:"prefixes"`
	Advertisements  int `json:"advertisements"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := s.Env.Deploy.Stats()
	s.mu.Lock()
	prefixes := s.cfg.NumPrefixes()
	adverts := s.cfg.TotalAdvertisements()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, StatusResponse{
		PoPs: st.PoPs, Peerings: st.Peerings, TransitPeerings: st.Transit,
		UserGroups: s.Env.UGs.Len(), Prefixes: prefixes, Advertisements: adverts,
	})
}

// SolveRequest is the /solve payload.
type SolveRequest struct {
	Budget     int     `json:"budget"`
	ReuseKm    float64 `json:"reuse_km"`
	Iterations int     `json:"iterations"`
}

// SolveResponse is the /solve reply.
type SolveResponse struct {
	Prefixes       int    `json:"prefixes"`
	Advertisements int    `json:"advertisements"`
	SolveTime      string `json:"solve_time"`
	Iterations     int    `json:"iterations"`
	Announced      bool   `json:"announced"`
}

// maxBodyBytes bounds every request body the API decodes.
const maxBodyBytes = 1 << 20

// bodyErrStatus maps a request-body decode error to its reply status:
// 413 when the body ran past maxBodyBytes, 400 otherwise.
func bodyErrStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, bodyErrStatus(err), err)
		return
	}
	if req.Budget < 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("budget must be >= 1"))
		return
	}
	params := core.DefaultParams(req.Budget)
	if req.ReuseKm > 0 {
		params.ReuseKm = req.ReuseKm
	}
	if req.Iterations > 0 {
		params.MaxIterations = req.Iterations
	}
	params.Obs = s.obs
	params.Trace = s.Trace
	exec := core.NewWorldExecutor(s.Env.World, s.Env.UGs, 0.5, s.Env.Seed+123)
	o, err := core.New(s.Env.Inputs, exec, params)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	start := time.Now()
	cfg, err := o.Solve()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.mu.Lock()
	s.cfg = cfg
	s.reports = o.Reports()
	s.mu.Unlock()

	announced := false
	if s.RouteServer != "" {
		if err := s.announce(cfg); err != nil {
			writeErr(w, http.StatusBadGateway, fmt.Errorf("solved but announce failed: %w", err))
			return
		}
		announced = true
	}
	writeJSON(w, http.StatusOK, SolveResponse{
		Prefixes:       cfg.NumPrefixes(),
		Advertisements: cfg.TotalAdvertisements(),
		SolveTime:      time.Since(start).String(),
		Iterations:     len(o.Reports()),
		Announced:      announced,
	})
}

// PrefixJSON is one /config entry.
type PrefixJSON struct {
	Prefix   string  `json:"prefix"`
	Peerings []int32 `json:"peerings"`
}

func (s *Server) handleConfig(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PrefixJSON, 0, s.cfg.NumPrefixes())
	for i, peerings := range s.cfg.Prefixes {
		ids := make([]int32, len(peerings))
		for j, id := range peerings {
			ids[j] = int32(id)
		}
		out = append(out, PrefixJSON{Prefix: prefixForIndex(i).String(), Peerings: ids})
	}
	writeJSON(w, http.StatusOK, out)
}

// EvaluateResponse is the /evaluate payload.
type EvaluateResponse struct {
	BenefitMs          float64 `json:"benefit_ms"`
	PossibleBenefitMs  float64 `json:"possible_benefit_ms"`
	FractionOfPossible float64 `json:"fraction_of_possible"`
	ImprovedUGs        int     `json:"improved_ugs"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	cfg := s.cfg.Clone()
	s.mu.Unlock()
	res, err := core.Evaluate(s.Env.World, s.Env.UGs, cfg)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, EvaluateResponse{
		BenefitMs:          res.Benefit,
		PossibleBenefitMs:  res.PossibleBenefit,
		FractionOfPossible: res.FractionOfPossible(),
		ImprovedUGs:        res.ImprovedUGs,
	})
}

// ReportJSON is one /reports entry.
type ReportJSON struct {
	Iteration      int     `json:"iteration"`
	Realized       float64 `json:"realized_benefit_ms"`
	Predicted      float64 `json:"predicted_benefit_ms"`
	Lower          float64 `json:"lower_ms"`
	Upper          float64 `json:"upper_ms"`
	Facts          int     `json:"facts_learned"`
	Prefixes       int     `json:"prefixes"`
	Advertisements int     `json:"advertisements"`
}

func (s *Server) handleReports(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ReportJSON, 0, len(s.reports))
	for _, r := range s.reports {
		out = append(out, ReportJSON{
			Iteration: r.Iteration, Realized: r.RealizedBenefit, Predicted: r.PredictedBenefit,
			Lower: r.PredictedLower, Upper: r.PredictedUpper,
			Facts: r.FactsLearned, Prefixes: r.PrefixesUsed, Advertisements: r.AdvertisementsUsed,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// prefixForIndex assigns documentation prefixes to configuration slots:
// 10.(i/256).(i%256).0/24 in RFC1918 space for the simulated substrate.
func prefixForIndex(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
}

// announce sends one UPDATE per configured prefix over the persistent
// BGP session to the route server (the Fig. 4 "Advertisement
// Installation" arrow), dialing it on first use. The session stays open:
// BGP routes are flushed on session loss, so closing it would withdraw
// the installed configuration.
func (s *Server) announce(cfg advertise.Config) error {
	s.mu.Lock()
	sp := s.rs
	s.mu.Unlock()
	if sp == nil {
		conn, err := net.DialTimeout("tcp", s.RouteServer, s.AnnounceTimeout)
		if err != nil {
			return err
		}
		sp = bgp.NewSpeaker(conn, 64500, 0x0a000001, 30*time.Second)
		if err := sp.Handshake(); err != nil {
			_ = conn.Close()
			return err
		}
		go func() {
			_ = sp.Run()
			// Session lost: forget it so the next solve redials.
			s.mu.Lock()
			if s.rs == sp {
				s.rs = nil
			}
			s.mu.Unlock()
		}()
		s.mu.Lock()
		s.rs = sp
		s.mu.Unlock()
	}
	for i := range cfg.Prefixes {
		u := bgp.Update{
			Origin:  bgp.OriginIGP,
			ASPath:  []uint16{64500},
			NextHop: netip.MustParseAddr("192.0.2.1"),
			NLRI:    []netip.Prefix{prefixForIndex(i)},
		}
		if err := sp.SendUpdate(u); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts down the announce session (withdrawing installed routes).
func (s *Server) Close() error {
	s.mu.Lock()
	sp := s.rs
	s.rs = nil
	s.mu.Unlock()
	if sp != nil {
		return sp.Close()
	}
	return nil
}
