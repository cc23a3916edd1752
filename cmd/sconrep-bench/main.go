// Command sconrep-bench regenerates the paper's evaluation (§V): every
// table and figure, as aligned text tables, on a loopback cluster
// (cluster.New) with the simulated LAN cost model.
//
// Usage:
//
//	sconrep-bench -exp all                    # everything (minutes)
//	sconrep-bench -exp fig3                   # one experiment
//	sconrep-bench -exp fig5 -mixes shopping -replicas 1,2,4
//	sconrep-bench -exp table1
//	sconrep-bench -quick                      # smoke-sized sweeps
//
// Experiments: table1, fig3, fig4, fig5 (also emits fig6), fig7,
// ablation, all.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sconrep/internal/bench"
	"sconrep/internal/cluster"
	"sconrep/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig3, fig4, fig5, fig7, ablation, all")
	quick := flag.Bool("quick", false, "smoke-sized sweeps (seconds instead of minutes)")
	scale := flag.Float64("scale", 0, "override latency time scale (0 = profile default)")
	measure := flag.Duration("measure", 0, "override per-point measurement interval")
	mixesFlag := flag.String("mixes", "", "comma-separated TPC-W mixes (default all)")
	replicasFlag := flag.String("replicas", "", "comma-separated replica counts (default 1,2,4,6,8)")
	ratiosFlag := flag.String("ratios", "", "comma-separated micro update ratios (default 0,10,25,50,75,100)")
	obsAddr := flag.String("obs", "", "observability listen address: watch the sweep live via /metrics, /healthz, /traces, /snapshot, /debug/pprof")
	flag.Parse()

	prof := bench.Full()
	if *quick {
		prof = bench.Quick()
	}
	if *scale > 0 {
		prof.Scale = *scale
	}
	if *measure > 0 {
		prof.Measure = *measure
	}
	if *obsAddr != "" {
		prof = withObs(prof, *obsAddr)
	}

	var mixes []string
	if *mixesFlag != "" {
		mixes = strings.Split(*mixesFlag, ",")
	}
	replicas, err := parseInts(*replicasFlag)
	if err != nil {
		log.Fatalf("bad -replicas: %v", err)
	}
	ratios, err := parseInts(*ratiosFlag)
	if err != nil {
		log.Fatalf("bad -ratios: %v", err)
	}

	w := os.Stdout
	start := time.Now()
	fmt.Fprintf(w, "sconrep-bench: profile scale=%.2f warmup=%s measure=%s\n\n",
		prof.Scale, prof.Warmup, prof.Measure)

	run := func(name string, fn func() error) {
		t0 := time.Now()
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(w, "[%s done in %s]\n\n", name, time.Since(t0).Round(time.Second))
	}

	switch *exp {
	case "table1":
		bench.TableI(w)
	case "fig3":
		run("fig3", func() error { _, err := bench.Fig3(w, prof, ratios); return err })
	case "fig4":
		run("fig4", func() error { return bench.Fig4(w, prof) })
	case "fig5", "fig6":
		run("fig5+6", func() error { return bench.TPCWScaled(w, prof, mixes, replicas) })
	case "fig7":
		run("fig7", func() error { return bench.TPCWFixed(w, prof, mixes, replicas) })
	case "ablation":
		run("ablation", func() error {
			if err := bench.AblationGranularity(w, prof); err != nil {
				return err
			}
			return bench.AblationEarlyCert(w, prof)
		})
	case "all":
		bench.TableI(w)
		run("fig3", func() error { _, err := bench.Fig3(w, prof, ratios); return err })
		run("fig4", func() error { return bench.Fig4(w, prof) })
		run("fig5+6", func() error { return bench.TPCWScaled(w, prof, mixes, replicas) })
		run("fig7", func() error { return bench.TPCWFixed(w, prof, mixes, replicas) })
		run("ablation", func() error {
			if err := bench.AblationGranularity(w, prof); err != nil {
				return err
			}
			return bench.AblationEarlyCert(w, prof)
		})
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
	fmt.Fprintf(w, "total: %s\n", time.Since(start).Round(time.Second))
}

// withObs attaches a live observability endpoint to the sweep: every
// point's cluster re-registers its instruments with one registry, so
// /metrics always describes the point currently running, /traces holds
// the most recent transaction timelines, and /snapshot serves the live
// collector snapshot in the metrics.Snapshot JSON format.
func withObs(prof bench.Profile, addr string) bench.Profile {
	prof.Obs = obs.NewRegistry()
	prof.Traces = obs.NewTraceRecorder(1024)
	var cur atomic.Pointer[cluster.Cluster]
	prof.OnCluster = func(c *cluster.Cluster) { cur.Store(c) }
	srv, err := obs.Serve(addr, obs.Options{
		Registry: prof.Obs,
		Traces:   prof.Traces,
		Health: func() obs.Health {
			return obs.Health{Ready: cur.Load() != nil, Role: "bench", Detail: map[string]any{
				"running": cur.Load() != nil,
			}}
		},
		JSON: map[string]func() any{
			"/snapshot": func() any {
				c := cur.Load()
				if c == nil {
					return map[string]any{"running": false}
				}
				return c.Collector().Snapshot()
			},
		},
	})
	if err != nil {
		log.Fatalf("obs: %v", err)
	}
	log.Printf("bench observability on http://%s (/metrics /healthz /traces /snapshot /debug/pprof)", srv.Addr())
	return prof
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
