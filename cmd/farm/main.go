// Command farm runs the fault-tolerant hazard-service ensemble farm: a
// Latin-hypercube rupture-scenario ensemble is computed over a
// supervised worker fleet (retry with backoff, per-job deadlines,
// per-class circuit breakers, content-addressed artifact store) and the
// resulting PGV maps and hazard products are served over HTTP with
// admission control and graceful degradation.
//
// Batch mode (default) computes the ensemble, audits the store and
// prints a stats summary. With -serve the process then stays up serving
// /hazard, /map and /status. -chaos arms the service-level fault storm
// (worker crashes, hung jobs, artifact corruption); -pfs-faults adds a
// parallel-filesystem fault plan under the store; -ft runs each job as
// a checkpoint/restart world with the given rank count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/farm"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

func main() {
	n := flag.Int("n", 16, "ensemble size (Latin-hypercube scenario count)")
	seed := flag.Int64("seed", 1, "scenario sampling seed")
	workers := flag.Int("workers", 4, "worker fleet size")
	attempts := flag.Int("attempts", 6, "max attempts per scenario")
	deadline := flag.Duration("deadline", 10*time.Second, "per-job deadline")
	audit := flag.Int("audit", 2, "store audit rounds after the ensemble")
	ftRanks := flag.Int("ft", 0, "run each job as a checkpointed world with this many ranks (0: plain solver)")
	chaos := flag.Bool("chaos", false, "arm the service-level fault storm (crash/hang/corrupt)")
	pfsFaults := flag.Bool("pfs-faults", false, "arm PFS fault injection under the artifact store")
	serve := flag.String("serve", "", "address to serve HTTP on after the ensemble (empty: batch mode)")
	jsonOut := flag.Bool("json", false, "print stats as JSON")
	flag.Parse()
	if *n < 0 || *workers < 1 || *attempts < 1 || *deadline <= 0 || *audit < 0 || *ftRanks < 0 {
		fmt.Fprintf(os.Stderr, "farm: want -n >= 0, -workers >= 1, -attempts >= 1, -deadline > 0, -audit >= 0, -ft >= 0; got %d, %d, %d, %v, %d, %d\n",
			*n, *workers, *attempts, *deadline, *audit, *ftRanks)
		os.Exit(1)
	}

	fs := pfs.New(pfs.Jaguar())
	if *pfsFaults {
		fs.InjectFaults(pfs.FaultPlan{
			Seed: 7, WriteFailProb: 0.05, ShortWriteProb: 0.03,
			TornWriteProb: 0.03, ReadFailProb: 0.02, MaxConsecutive: 2,
		})
	}
	store := farm.NewStore(fs, nil)

	spec := farm.DefaultSpec()
	if *ftRanks > 0 {
		spec.Ranks = *ftRanks
	}
	cfg := farm.Config{
		Spec: spec, Workers: *workers, MaxAttempts: *attempts,
		Deadline: *deadline,
		Rec:      telemetry.NewRecorder(0, 0),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *chaos {
		cfg.Chaos = &farm.ChaosPlan{
			Seed: 42, CrashProb: 0.1, HangProb: 0.05,
			HangDur: *deadline * 2, CorruptProb: 0.08, MaxFaultsPerJob: 2,
		}
	}
	if *ftRanks > 0 {
		cfg.FT = &farm.FTConfig{Interval: 10}
	}

	f := farm.New(cfg, store, farm.NewSurrogate(farm.DefaultRange()))
	defer f.Close()

	scs := farm.LatinHypercube(*n, *seed, farm.DefaultRange())
	t0 := time.Now()
	for _, sc := range scs {
		f.Submit(sc)
	}
	f.Wait()
	healed := f.Audit(*audit)
	wall := time.Since(t0)

	st := f.Stats()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			farm.Stats
			WallSec float64 `json:"wall_sec"`
			Healed  int     `json:"audit_healed"`
		}{st, wall.Seconds(), healed})
	} else {
		fmt.Printf("ensemble: %d scenarios, %d completed, %d failed in %.2fs (%.0f scenarios/h)\n",
			*n, st.Completed, st.Failed, wall.Seconds(),
			float64(st.Completed)/wall.Seconds()*3600)
		fmt.Printf("supervision: %d attempts, %d retries, %d worker crashes, %d deadline misses, %d breaker trips, %d corrupt re-queued (%d healed by audit)\n",
			st.Attempts, st.Retries, st.WorkerCrashes, st.DeadlineMisses,
			st.BreakerTrips, st.CorruptRequeued, healed)
	}
	if bad := store.VerifyAll(); len(bad) != 0 {
		fmt.Fprintf(os.Stderr, "farm: %d corrupt artifacts survived the audit: %v\n", len(bad), bad)
		os.Exit(1)
	}

	if *serve != "" {
		srv := farm.NewServer(f, farm.ServerConfig{MaxConcurrent: 16})
		fmt.Printf("serving /hazard /map /status on %s\n", *serve)
		if err := http.ListenAndServe(*serve, srv); err != nil {
			fmt.Fprintf(os.Stderr, "farm: serve: %v\n", err)
			os.Exit(1)
		}
	}
}
