package farm

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// ServedCounts reports (served, degraded, shed).
func (s *Server) ServedCounts() (served, degraded, shed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served, s.degraded, s.shed
}

func getJSON(t *testing.T, s *Server, url string, out any) int {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code < 500 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("bad JSON from %s: %v (%s)", url, err, w.Body.String())
		}
	}
	return w.Code
}

func scenarioURL(sc Scenario) string {
	return fmt.Sprintf("/hazard?mw=%g&hx=%g&hy=%g&hz=%g&vs=%g",
		sc.Mw, sc.HypoX, sc.HypoY, sc.HypoZ, sc.VsScale)
}

func TestServerExactAndDegraded(t *testing.T) {
	f := newTestFarm(t, Config{Workers: 2})
	srv := NewServer(f, ServerConfig{})
	sc := Scenario{Mw: 6.5, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1}

	// Cold query: miss → degraded prior answer, compute queued.
	var r1 HazardResponse
	if code := getJSON(t, srv, scenarioURL(sc), &r1); code != 200 {
		t.Fatalf("cold query code %d", code)
	}
	if !r1.Degraded || !r1.Queued {
		t.Fatalf("cold answer %+v", r1)
	}
	f.Wait()

	// Warm query: exact product from the store, with a hazard curve.
	var r2 HazardResponse
	if code := getJSON(t, srv, scenarioURL(sc), &r2); code != 200 {
		t.Fatalf("warm query code %d", code)
	}
	if r2.Degraded || r2.Source != "store" || r2.PeakPGV <= 0 {
		t.Fatalf("warm answer %+v", r2)
	}
	if len(r2.Curve) == 0 || len(r2.Curve) != len(r2.Thresholds) {
		t.Fatalf("no hazard curve: %+v", r2)
	}

	// A nearby scenario now gets a surrogate answer (trained on 1 point).
	sc2 := sc
	sc2.Mw = 6.6
	var r3 HazardResponse
	getJSON(t, srv, scenarioURL(sc2), &r3)
	if !r3.Degraded || r3.Source != "surrogate" {
		t.Fatalf("nearby answer %+v", r3)
	}

	// The map endpoint serves the verified artifact.
	var m MapResponse
	if code := getJSON(t, srv, "/map?key="+r2.Key, &m); code != 200 {
		t.Fatalf("map code %d", code)
	}
	if m.NX*m.NY != len(m.PGVH) || m.Peak != r2.PeakPGV {
		t.Fatalf("map %d x %d, peak %g vs %g", m.NX, m.NY, m.Peak, r2.PeakPGV)
	}

	// Malformed input is a 400, not a 500.
	var e map[string]string
	if code := getJSON(t, srv, "/hazard?mw=abc", &e); code != 400 {
		t.Fatalf("malformed query code %d", code)
	}
}

// TestServerNeverServesCorrupt: a corrupted artifact must never be
// returned — the query gets a degraded answer and the scenario re-queues.
func TestServerNeverServesCorrupt(t *testing.T) {
	f := newTestFarm(t, Config{Workers: 2})
	srv := NewServer(f, ServerConfig{})
	sc := Scenario{Mw: 7.1, HypoX: 0.4, HypoY: 0.6, HypoZ: 0.5, VsScale: 0.95}
	key := f.Submit(sc)
	f.Wait()
	if !f.Store().CorruptAtRest(key) {
		t.Fatal("could not corrupt artifact")
	}

	var r HazardResponse
	if code := getJSON(t, srv, scenarioURL(sc), &r); code != 200 {
		t.Fatalf("query on corrupt artifact code %d", code)
	}
	if !r.Degraded {
		t.Fatal("corrupt artifact served as exact")
	}
	// The re-queue heals it.
	f.Wait()
	var r2 HazardResponse
	getJSON(t, srv, scenarioURL(sc), &r2)
	if r2.Degraded || r2.Source != "store" {
		t.Fatalf("artifact not healed after re-queue: %+v", r2)
	}
	if f.Stats().CorruptRequeued == 0 {
		t.Fatal("requeue not accounted")
	}

	// Corrupt map requests degrade too.
	f.Store().CorruptAtRest(key)
	var m map[string]any
	if code := getJSON(t, srv, "/map?key="+key, &m); code != 200 {
		t.Fatalf("map on corrupt artifact code %d", code)
	}
	if m["degraded"] != true {
		t.Fatalf("map reply %v", m)
	}
}

// TestServerLoadShedding: with MaxConcurrent 1 and a slow in-flight
// query, concurrent queries are shed to degraded answers, never errors.
// A query no job can answer is the caller's error: a 400 with a JSON
// error, no job queued and no breaker moved.
func TestServerRejectsUnanswerableScenarios(t *testing.T) {
	f := newTestFarm(t, Config{Workers: 1})
	srv := NewServer(f, ServerConfig{})
	for _, q := range []string{
		"mw=NaN", "mw=Inf", "mw=-Inf", "mw=1e300", "mw=2.9", "mw=9.6", "hz=NaN", "vs=NaN",
		"hx=5", "hx=-3", "hy=1.01", "vs=0", "vs=-1", "vs=Inf",
	} {
		var body map[string]string
		if code := getJSON(t, srv, "/hazard?"+q, &body); code != 400 || body["error"] == "" {
			t.Errorf("%s: HTTP %d, body %v; want 400 with an error", q, code, body)
		}
	}
	if st := f.Stats(); st.Submitted != 0 || st.BreakerTrips != 0 || st.BreakerParks != 0 {
		t.Fatalf("rejected queries moved the farm: %+v", st)
	}
	var body HazardResponse
	if code := getJSON(t, srv, "/hazard?mw=3&hx=0&hy=1&hz=0.5&vs=0.5", &body); code != 200 {
		t.Fatalf("edge of the valid box: HTTP %d", code)
	}
}

func TestServerLoadShedding(t *testing.T) {
	f := newTestFarm(t, Config{Workers: 1})
	srv := NewServer(f, ServerConfig{MaxConcurrent: 1})
	// Occupy the only admission slot.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	var wg sync.WaitGroup
	codes := make([]int, 8)
	resps := make([]HazardResponse, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := Scenario{Mw: 6 + float64(i)*0.1, HypoX: 0.5, HypoY: 0.5,
				HypoZ: 0.5, VsScale: 1}
			req := httptest.NewRequest("GET", scenarioURL(sc), nil)
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			codes[i] = w.Code
			json.Unmarshal(w.Body.Bytes(), &resps[i])
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != 200 {
			t.Fatalf("shed query %d got %d", i, code)
		}
		if !resps[i].Degraded {
			t.Fatalf("saturated query %d served exact", i)
		}
	}
	if _, _, shed := srv.ServedCounts(); shed != 8 {
		t.Fatalf("shed = %d, want 8", shed)
	}
}

// TestServerBreakerOpenServesDegraded: with a class's breaker open, a
// miss must not enqueue compute — it serves degraded immediately.
func TestServerBreakerOpenServesDegraded(t *testing.T) {
	f := newTestFarm(t, Config{
		breaker: breakerConfig{threshold: 1, cooldown: time.Hour},
	})
	srv := NewServer(f, ServerConfig{})
	sc := Scenario{Mw: 7.3, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1}
	f.Breakers().OnFailure(sc.Class()) // trip M7+

	var r HazardResponse
	getJSON(t, srv, scenarioURL(sc), &r)
	if !r.Degraded || r.Queued {
		t.Fatalf("open-breaker answer %+v", r)
	}
	if d := f.QueueDepth(); d != 0 {
		t.Fatalf("open breaker still enqueued compute (depth %d)", d)
	}
	// Other classes still enqueue.
	sc2 := Scenario{Mw: 5.8, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1}
	var r2 HazardResponse
	getJSON(t, srv, scenarioURL(sc2), &r2)
	if !r2.Queued {
		t.Fatalf("healthy class not enqueued: %+v", r2)
	}
	f.Wait()
}

// TestServerBreakerHealsWithNothingQueued: a class that tripped with no job
// queued behind it still heals. Past the cooldown a miss queues its scenario,
// whose job is the half-open probe, and the job's success closes the class.
func TestServerBreakerHealsWithNothingQueued(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	f := newTestFarm(t, Config{breaker: breakerConfig{threshold: 1, cooldown: time.Minute, now: clk.now}})
	srv := NewServer(f, ServerConfig{})
	sc := Scenario{Mw: 7.3, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1}
	f.Breakers().OnFailure(sc.Class()) // trip M7+ with nothing queued

	var r HazardResponse
	if getJSON(t, srv, scenarioURL(sc), &r); r.Queued {
		t.Fatalf("queued inside the cooldown: %+v", r)
	}
	clk.advance(time.Minute)
	if getJSON(t, srv, scenarioURL(sc), &r); !r.Queued {
		t.Fatalf("past the cooldown the class still sheds its compute: %+v", r)
	}
	f.Wait()
	if st := f.Breakers().State(sc.Class()); st != Closed || f.Stats().Completed != 1 {
		t.Fatalf("after the probe job: breaker %v, stats %+v", st, f.Stats())
	}
}

func TestServerStatus(t *testing.T) {
	f := newTestFarm(t, Config{Workers: 2})
	srv := NewServer(f, ServerConfig{})
	sc := Scenario{Mw: 6.2, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1}
	f.Submit(sc)
	f.Wait()
	var st StatusResponse
	if code := getJSON(t, srv, "/status", &st); code != 200 {
		t.Fatalf("status code %d", code)
	}
	if st.Stats.Completed != 1 || st.Stored != 1 {
		t.Fatalf("status %+v", st)
	}
	var nf map[string]string
	if code := getJSON(t, srv, "/nope", &nf); code != 404 {
		t.Fatalf("unknown path code %d", code)
	}
}
