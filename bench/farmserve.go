package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/farm"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// service is one hazard service: store, farm, HTTP front end and a real
// loopback listener. Every Config field cmd/farm leaves to its default is
// left unset; Workers is nproc-1 so one core computes while one serves.
type service struct {
	store *farm.Store
	farm  *farm.Farm
	http  *httptest.Server
	cli   *http.Client
}

func newService(rec *telemetry.Recorder) *service {
	store := farm.NewStore(pfs.New(pfs.Jaguar()), nil)
	f := farm.New(farm.Config{
		Spec:    farm.DefaultSpec(),
		Workers: max(1, runtime.NumCPU()-1),
		Rec:     rec,
	}, store, farm.NewSurrogate(farm.DefaultRange()))
	ts := httptest.NewServer(farm.NewServer(f, farm.ServerConfig{}))
	return &service{store: store, farm: f, http: ts, cli: ts.Client()}
}

func (s *service) close() {
	s.http.Close()
	s.farm.Close()
}

// pilot runs one scenario to completion through the queue.
func (s *service) pilot(sc farm.Scenario) bool {
	s.farm.Submit(sc)
	s.farm.Wait()
	return s.store.Has(sc.Key())
}

func hazardURL(base string, sc farm.Scenario) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return base + "/hazard?" + url.Values{
		"mw": {f(sc.Mw)}, "hx": {f(sc.HypoX)}, "hy": {f(sc.HypoY)}, "hz": {f(sc.HypoZ)}, "vs": {f(sc.VsScale)},
	}.Encode()
}

// query sends one /hazard request and decodes the reply.
func (s *service) query(sc farm.Scenario) (farm.HazardResponse, error) {
	var hr farm.HazardResponse
	resp, err := s.cli.Get(hazardURL(s.http.URL, sc))
	if err != nil {
		return hr, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return hr, err
	}
	if resp.StatusCode != http.StatusOK {
		return hr, fmt.Errorf("status %d", resp.StatusCode)
	}
	return hr, json.Unmarshal(body, &hr)
}

// farmWorkload submits the whole Latin-hypercube ensemble at once and, while
// it computes, sends /hazard queries for ensemble members on an open-loop
// schedule from one goroutine. A query is timed from the instant it was due,
// so a stalled reply charges its delay to the queries behind it.
func farmWorkload(o options, tr *tracer) measurement {
	var m measurement
	scs := farm.LatinHypercube(o.scale.farmScenarios, o.seed, farm.DefaultRange())
	pilot := farm.LatinHypercube(1, o.seed+1, farm.DefaultRange())[0]

	if tr == nil {
		// Set-up: build the service and complete a one-scenario pilot.
		setups := make([]float64, 0, o.scale.farmSetupReps)
		for i := 0; i <= o.scale.farmSetupReps; i++ {
			t0 := time.Now()
			svc := newService(nil)
			ok := svc.pilot(pilot)
			if i > 0 {
				setups = append(setups, time.Since(t0).Seconds())
			}
			svc.close()
			m.check(ok, "farm-serve: set-up pilot %d left no product", i)
		}
		m.setupS = median(setups)
	}

	var rec *telemetry.Recorder
	if tr != nil {
		rec = telemetry.NewRecorder(0, 0)
	}
	svc := newService(rec)
	defer svc.close()
	m.check(svc.pilot(pilot), "farm-serve: pilot left no product")

	id := fmt.Sprintf("farm-serve#%d", o.seed)
	run := tr.begin(-1, id, "farm-serve")
	c0, t0 := cpuSeconds(), time.Now()
	sp := tr.begin(run, id, "farm.Submit")
	for _, sc := range scs {
		svc.farm.Submit(sc)
	}
	tr.end(sp)

	type served struct {
		key  string
		peak float64
	}
	var (
		done      atomic.Bool
		finished  = make(chan struct{})
		latencies []float64 // ms, from due time
		lateMax   float64   // ms the generator started a send after it was due
		exact     []served  // non-degraded replies, checked against the store afterwards
		degraded  int
		bad       int
	)
	go func() {
		defer close(finished)
		rng := rand.New(rand.NewSource(o.seed))
		gap := time.Duration(float64(time.Second) / o.scale.farmRate)
		for i := 0; ; i++ {
			due := t0.Add(time.Duration(i) * gap)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if done.Load() {
				return
			}
			sc := scs[rng.Intn(len(scs))]
			qid := fmt.Sprintf("%s/q%d", id, i)
			qs := tr.begin(run, qid, "GET /hazard")
			late := time.Since(due)
			hr, err := svc.query(sc)
			latencies = append(latencies, float64(time.Since(due))/1e6)
			tr.end(qs)
			lateMax = max(lateMax, float64(late)/1e6)
			switch {
			case err != nil || hr.Key != sc.Key() || !finite(hr.PeakPGV):
				bad++
			case hr.Degraded:
				degraded++
			default:
				exact = append(exact, served{hr.Key, hr.PeakPGV})
			}
		}
	}()
	sp = tr.begin(run, id, "farm.Wait")
	svc.farm.Wait()
	tr.end(sp)
	done.Store(true)
	<-finished
	sp = tr.begin(run, id, "Store.VerifyAll")
	corrupt := svc.store.VerifyAll()
	tr.end(sp)
	wall := time.Since(t0).Seconds()
	tr.end(run)
	m.solveS = []float64{wall}
	m.cpuS = []float64{cpuSeconds() - c0}

	// Scenarios: each must have completed, once, into a verified product.
	st := svc.farm.Stats()
	m.attempted += len(scs)
	if missing := len(scs) - st.Completed + len(corrupt); missing > 0 {
		m.failed += missing
		m.notes = append(m.notes, fmt.Sprintf("farm-serve: %d of %d scenarios completed, %d permanently failed, %d corrupt artifacts",
			st.Completed, len(scs), st.Failed, len(corrupt)))
	}
	// Queries: every reply a well-formed 200, every exact answer equal to
	// the stored product's peak.
	m.attempted += len(latencies)
	for _, e := range exact {
		if p, err := svc.store.Get(e.key); err != nil || p.Peak != e.peak {
			bad++
		}
	}
	if bad > 0 {
		m.failed += bad
		m.notes = append(m.notes, fmt.Sprintf("farm-serve: %d of %d replies wrong, not 200, or unequal to the stored product", bad, len(latencies)))
	}

	m.add("farm.query_ms_p50", quantile(latencies, 0.5), "ms")
	m.add("farm.query_ms_p95", quantile(latencies, 0.95), "ms")
	m.add("farm.queries_sent", float64(len(latencies)), "count")
	m.add("farm.generator_late_ms_max", lateMax, "ms")
	m.add("farm.degraded_share", float64(degraded)/float64(max(1, len(latencies))), "ratio")
	m.add("farm.attempts_per_scenario", float64(st.Attempts-1)/float64(len(scs)), "count") // the pilot's attempt excluded
	if tr == nil {
		return m
	}
	jobS, _ := rec.PhaseTotal(telemetry.Job)
	m.add("farm.job_phase_s", jobS, "s")
	m.add("bench.traced_solve_s.farm-serve", wall, "s")
	return m
}
