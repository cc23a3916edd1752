// Package bench is the experiment harness: it runs one (workload,
// mode, replicas, clients) point on a loopback cluster and collects
// the paper's metrics, and it exposes one experiment function per
// table/figure of §V that sweeps the corresponding parameter grid and
// renders the same rows/series the paper reports.
//
// Durations are controlled by a single Profile so the same experiments
// run as quick smoke benches (`go test -bench`) or as full sweeps
// (`sconrep-bench`).
package bench

import (
	"fmt"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/history"
	"sconrep/internal/latency"
	"sconrep/internal/metrics"
	"sconrep/internal/obs"
	"sconrep/internal/storage"
	"sconrep/internal/workload/micro"
	"sconrep/internal/workload/tpcw"
)

// Profile bundles the time parameters of a sweep.
type Profile struct {
	// Scale multiplies every simulated delay (1.0 = paper scale).
	Scale float64
	// Warmup and Measure bound each point's run.
	Warmup  time.Duration
	Measure time.Duration
	// CheckHistory runs the strong/session-consistency checkers on
	// every point and fails loudly on violations.
	CheckHistory bool
	// Obs, when non-nil, attaches every point's cluster to this live
	// metrics registry (the sweep becomes watchable over HTTP); Traces
	// additionally records per-transaction timelines. Instruments are
	// re-registered per point, so gauges always describe the cluster
	// currently running.
	Obs    *obs.Registry
	Traces *obs.TraceRecorder
	// OnCluster, when non-nil, is called with each point's cluster
	// right before clients start — the bench server uses it to expose
	// the live collector snapshot.
	OnCluster func(*cluster.Cluster)
}

// Full is the profile used by cmd/sconrep-bench. Scale is 1.0 (paper
// scale): this host's timer granularity is ~1.3 ms, so compressing
// delays below the millisecond floor would flatten the ratios
// (apply cost vs network hop) the figures' shapes depend on.
func Full() Profile {
	return Profile{Scale: 1.0, Warmup: 2 * time.Second, Measure: 4 * time.Second, CheckHistory: true}
}

// Quick is the smoke profile used by the testing.B benchmarks: same
// paper scale, shorter intervals (fewer samples, same shapes).
func Quick() Profile {
	return Profile{Scale: 1.0, Warmup: 400 * time.Millisecond, Measure: 1200 * time.Millisecond}
}

// Point is one experiment configuration.
type Point struct {
	Workload string // "micro" or "tpcw"
	Mode     core.Mode
	Replicas int
	Clients  int
	// DisableEarlyCert turns off early certification (ablation).
	DisableEarlyCert bool

	// Micro parameters.
	UpdatePercent int
	MicroScale    micro.Scale
	// MicroUpdateTables / MicroReadTables restrict which tables the
	// clients touch (nil = all four); used by the granularity ablation.
	MicroUpdateTables []int
	MicroReadTables   []int

	// TPC-W parameters.
	Mix       string
	TPCWScale tpcw.Scale
	ThinkTime time.Duration // paper-scale; scaled by Profile.Scale
}

// Result is the measured outcome of one point.
type Result struct {
	Point    Point
	Snapshot metrics.Snapshot
	// Violations counts strong-consistency violations found by the
	// checker (only populated when Profile.CheckHistory).
	Violations int
}

// Run executes one point.
func Run(p Point, prof Profile) (Result, error) {
	model := latency.DefaultLAN().Scaled(prof.Scale)
	c, err := cluster.New(cluster.Config{
		Replicas:         p.Replicas,
		Mode:             p.Mode,
		Latency:          model,
		Seed:             int64(p.Replicas)*1000 + int64(p.Mode),
		RecordHistory:    prof.CheckHistory,
		DisableEarlyCert: p.DisableEarlyCert,
	})
	if err != nil {
		return Result{}, err
	}
	defer c.Close()
	c.EnableObs(prof.Obs, prof.Traces)
	if prof.OnCluster != nil {
		prof.OnCluster(c)
	}

	switch p.Workload {
	case "micro":
		ms := p.MicroScale
		if ms.RowsPerTable == 0 {
			ms = micro.DefaultScale()
		}
		if err := c.LoadData(func(e *storage.Engine) error { return micro.Load(e, ms) }); err != nil {
			return Result{}, err
		}
		micro.RegisterAll(c)
		micro.RunClients(c, p.Clients,
			micro.Client{
				Scale: ms, UpdatePercent: p.UpdatePercent, Retries: 3,
				UpdateTables: p.MicroUpdateTables, ReadTables: p.MicroReadTables,
			},
			prof.Warmup, prof.Measure)

	case "tpcw":
		ts := p.TPCWScale
		if ts.Items == 0 {
			ts = tpcw.DefaultScale()
		}
		mix, err := tpcw.MixByName(p.Mix)
		if err != nil {
			return Result{}, err
		}
		if err := c.LoadData(func(e *storage.Engine) error { return tpcw.Load(e, ts) }); err != nil {
			return Result{}, err
		}
		tpcw.RegisterAll(c)
		// ThinkTime is paper-scale; Session.Think scales it by the
		// latency model's Scale factor.
		runEBs(c, p.Clients, &tpcw.EB{Mix: mix, Scale: ts, ThinkTime: p.ThinkTime, Retries: 3}, prof)

	default:
		return Result{}, fmt.Errorf("bench: unknown workload %q", p.Workload)
	}

	res := Result{Point: p, Snapshot: c.Collector().Snapshot()}
	if prof.CheckHistory && c.Recorder() != nil {
		events := c.Recorder().Events()
		if p.Mode.Strong() {
			res.Violations = len(history.CheckStrong(events))
		} else {
			res.Violations = len(history.CheckSession(events))
		}
	}
	return res, nil
}

// runEBs launches n emulated browsers with warm-up/measure phasing.
func runEBs(c *cluster.Cluster, n int, eb *tpcw.EB, prof Profile) {
	stop := make(chan struct{})
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func(id int) {
			eb.Run(c, id, stop)
			done <- struct{}{}
		}(i)
	}
	time.Sleep(prof.Warmup)
	c.Collector().Reset()
	time.Sleep(prof.Measure)
	close(stop)
	for i := 0; i < n; i++ {
		<-done
	}
}

// Modes is the presentation order used across all experiments.
var Modes = []core.Mode{core.Eager, core.Coarse, core.Fine, core.Session}
