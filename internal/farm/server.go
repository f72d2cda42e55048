package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core/source"
	"repro/internal/telemetry"
)

// ServerConfig tunes the hazard-service front end.
type ServerConfig struct {
	// MaxConcurrent bounds in-flight queries; excess load is shed to the
	// degraded path instead of queuing (default 16).
	MaxConcurrent int
}

// curvePoints is the hazard-curve resolution.
const curvePoints = 16

// Server is the HTTP/JSON hazard front end. Availability is the contract:
// every well-formed query gets a 200. When the exact product is served it
// is CRC-verified from the store ("degraded": false); when it cannot be —
// store miss, corrupt artifact, open breaker, or load shed — the answer
// comes from the RBF surrogate or a prior and is tagged "degraded": true.
// Corrupted artifacts are never served; they are deleted and re-queued.
type Server struct {
	farm *Farm
	sem  chan struct{}

	mu       sync.Mutex
	shed     int
	served   int
	degraded int
}

// NewServer wraps a farm.
func NewServer(f *Farm, cfg ServerConfig) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 16
	}
	return &Server{farm: f, sem: make(chan struct{}, cfg.MaxConcurrent)}
}

// HazardResponse is the /hazard reply.
type HazardResponse struct {
	Key        string    `json:"key"`
	Scenario   Scenario  `json:"scenario"`
	PeakPGV    float64   `json:"peak_pgv"`
	Degraded   bool      `json:"degraded"`
	Source     string    `json:"source"` // "store", "surrogate", "prior"
	Queued     bool      `json:"queued,omitempty"`
	Curve      []float64 `json:"curve,omitempty"`
	Thresholds []float64 `json:"thresholds,omitempty"`
}

// MapResponse is the /map reply.
type MapResponse struct {
	Key  string    `json:"key"`
	NX   int       `json:"nx"`
	NY   int       `json:"ny"`
	Peak float64   `json:"peak"`
	PGVH []float32 `json:"pgvh"`
}

// StatusResponse is the /status reply.
type StatusResponse struct {
	Stats      Stats             `json:"stats"`
	Breakers   map[string]string `json:"breakers"`
	Queue      int               `json:"queue_depth"`
	Stored     int               `json:"stored"`
	Served     int               `json:"served"`
	Degraded   int               `json:"degraded"`
	Shed       int               `json:"shed"`
	SurrogateN int               `json:"surrogate_n"`
}

// ServeHTTP routes /hazard, /map and /status. It never returns a 5xx:
// a defensive recover converts any handler panic into a degraded 200.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := s.farm.cfg.Rec.Span(telemetry.Serve)
	defer sp.End()
	defer func() {
		if rec := recover(); rec != nil {
			// Availability over everything: a handler bug degrades, it
			// does not 5xx.
			writeJSON(w, http.StatusOK, HazardResponse{
				Degraded: true, Source: "prior",
			})
		}
	}()
	switch r.URL.Path {
	case "/hazard":
		s.handleHazard(w, r)
	case "/map":
		s.handleMap(w, r)
	case "/status":
		s.handleStatus(w)
	default:
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown path"})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func parseScenario(r *http.Request) (Scenario, error) {
	q := r.URL.Query()
	get := func(name string, def float64) (float64, error) {
		s := q.Get(name)
		if s == "" {
			return def, nil
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s: %q", name, s)
		}
		return v, nil
	}
	var sc Scenario
	var err error
	if sc.Mw, err = get("mw", 6.5); err != nil {
		return sc, err
	}
	if sc.HypoX, err = get("hx", 0.5); err != nil {
		return sc, err
	}
	if sc.HypoY, err = get("hy", 0.5); err != nil {
		return sc, err
	}
	if sc.HypoZ, err = get("hz", 0.5); err != nil {
		return sc, err
	}
	if sc.VsScale, err = get("vs", 1.0); err != nil {
		return sc, err
	}
	return sc, sc.Validate()
}

// handleHazard is the main query path with admission control.
func (s *Server) handleHazard(w http.ResponseWriter, r *http.Request) {
	sc, err := parseScenario(r)
	if err != nil {
		// Malformed input is the caller's error — the one non-200 class.
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		// Saturated: shed to the cheap path without touching the store.
		s.mu.Lock()
		s.shed++
		s.degraded++
		s.served++
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, s.degradedAnswer(sc, false))
		return
	}

	key := sc.Key()
	resp := HazardResponse{Key: key, Scenario: sc}
	p, gerr := s.farm.Store().Get(key)
	switch {
	case gerr == nil:
		resp.PeakPGV = p.Peak
		resp.Source = "store"
		resp.Curve, resp.Thresholds = hazardCurve(p)
	case errors.Is(gerr, ErrCorrupt):
		// Corrupted artifact: delete and re-queue the real compute; the
		// caller gets a surrogate answer now, never the corrupt bytes.
		if !s.farm.Resubmit(key) {
			s.farm.Store().Delete(key)
		}
		resp = s.degradedAnswer(sc, true)
	default:
		// Plain miss: enqueue the compute only if the class's breaker is
		// closed (an open class sheds its compute demand), and answer
		// from the surrogate meanwhile.
		if s.farm.Breakers().Ready(sc.Class()) {
			s.farm.Submit(sc)
			resp.Queued = true
		}
		resp = s.degradedAnswer(sc, resp.Queued)
	}
	s.mu.Lock()
	s.served++
	if resp.Degraded {
		s.degraded++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// degradedAnswer builds the graceful-degradation reply: surrogate if
// trained, otherwise a magnitude-scaled prior. Never fails.
func (s *Server) degradedAnswer(sc Scenario, queued bool) HazardResponse {
	resp := HazardResponse{
		Key: sc.Key(), Scenario: sc, Degraded: true, Queued: queued,
	}
	if sur := s.farm.Surrogate(); sur != nil {
		if v, ok := sur.Predict(sc); ok {
			resp.PeakPGV = v
			resp.Source = "surrogate"
			return resp
		}
	}
	// Prior: exponential moment scaling normalized at the range floor.
	resp.PeakPGV = 1e-6 * source.Mw2M0(sc.Mw) / source.Mw2M0(5.5)
	resp.Source = "prior"
	return resp
}

// hazardCurve turns a PGV map into an exceedance curve over curvePoints
// log-spaced thresholds (fraction of surface sites exceeding each level).
func hazardCurve(p Product) (curve, thresholds []float64) {
	if p.Peak <= 0 || len(p.PGVH) == 0 {
		return nil, nil
	}
	vals := make([]float64, len(p.PGVH))
	for i, v := range p.PGVH {
		vals[i] = float64(v)
	}
	thresholds = analysis.HazardThresholds(p.Peak/1e3, p.Peak, curvePoints)
	curve = analysis.ExceedanceCurve(vals, thresholds)
	return curve, thresholds
}

// handleMap serves the full PGV map for a stored key. A corrupt artifact
// is re-queued and reported degraded-unavailable — never served.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing key"})
		return
	}
	p, err := s.farm.Store().Get(key)
	if err != nil {
		s.farm.Resubmit(key)
		writeJSON(w, http.StatusOK, map[string]any{
			"key": key, "degraded": true, "available": false,
		})
		return
	}
	writeJSON(w, http.StatusOK, MapResponse{
		Key: key, NX: p.NX, NY: p.NY, Peak: p.Peak, PGVH: p.PGVH,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter) {
	s.mu.Lock()
	served, degraded, shed := s.served, s.degraded, s.shed
	s.mu.Unlock()
	surN := 0
	if sur := s.farm.Surrogate(); sur != nil {
		surN = sur.N()
	}
	writeJSON(w, http.StatusOK, StatusResponse{
		Stats:      s.farm.Stats(),
		Breakers:   s.farm.Breakers().States(),
		Queue:      s.farm.QueueDepth(),
		Stored:     len(s.farm.Store().Keys()),
		Served:     served,
		Degraded:   degraded,
		Shed:       shed,
		SurrogateN: surN,
	})
}
