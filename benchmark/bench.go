package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// config is one invocation's sizing.
type config struct {
	seed int64
	// warmup precedes every measured run; measure is the timed run's
	// length, made of cycles of length cycle (a reference slice and a
	// window each), and tracedMeasure the traced run's, which is one
	// cycle.
	warmup, measure, cycle, tracedMeasure time.Duration
	// setups is how many times the cluster is set up; setup_s is the
	// median of the normalised times.
	setups int
	// replayN sizes the layer replay's statement-level input.
	replayN int
	// layers adds the layer replay and the traced run.
	layers bool
	// dataRoot holds this invocation's data directories.
	dataRoot string
	// traceOut, when set, receives the traced run's spans.
	traceOut string
}

// defaultConfig is the committed sizing: 3 s warm-up, a timed run of
// the given length in cycles of one second, a traced run of at most
// 8 s, five set-ups.
func defaultConfig(seed int64, seconds int, dataRoot string) config {
	return config{
		seed:          seed,
		warmup:        3 * time.Second,
		measure:       time.Duration(seconds) * time.Second,
		cycle:         time.Second,
		tracedMeasure: time.Duration(min(seconds, 8)) * time.Second,
		setups:        7,
		replayN:       2000,
		dataRoot:      dataRoot,
	}
}

// smokeConfig checks the instrument and measures nothing: half-second
// runs, one set-up, a short replay.
func smokeConfig(seed int64, dataRoot string) config {
	return config{
		seed:          seed,
		warmup:        200 * time.Millisecond,
		measure:       500 * time.Millisecond,
		cycle:         250 * time.Millisecond,
		tracedMeasure: 500 * time.Millisecond,
		setups:        1,
		replayN:       300,
		dataRoot:      dataRoot,
	}
}

// result is one workload's outcome.
type result struct {
	workload          string
	attempted, failed int
	e2e, layer        map[string]float64
	// notes are printed with the metrics: sample counts, window
	// extremes, which percentile a small class's _p99 really is.
	notes []string
}

// classMetrics fills in one latency class's _p50_ms and _p99_ms and
// returns the note that says what _p99 is made of.
func classMetrics(m map[string]float64, name string, l latencies) string {
	m[name+"_p50_ms"] = l.at(50)
	p99, p := l.p99()
	m[name+"_p99_ms"] = p99
	switch {
	case len(l) == 0:
		return fmt.Sprintf("%s: no samples on this workload", name)
	case p < 99:
		return fmt.Sprintf("%s: n=%d, %s_p99_ms reports p%g (the highest percentile with ten samples beyond it)", name, len(l), name, p)
	default:
		return fmt.Sprintf("%s: n=%d", name, len(l))
	}
}

// timedRun is what the untraced part of a workload yields.
type timedRun struct {
	timed
	// setupTimes are the set-ups' wall-clock times in seconds and
	// setupNorm the same × refAllocNominal ÷ the mean of the refAlloc
	// runs before and after each; refAllocMs is the mean of all of those.
	setupTimes, setupNorm []float64
	refAllocMs            float64
	// restart is the durable workloads' disk-restart time.
	restart time.Duration
	// retainedBytes is the live heap after the run minus after load.
	retainedBytes float64
}

// runTimed sets the cluster up cfg.setups times (the last one is used),
// warms up, runs the timed run and applies the correctness gate.
func runTimed(sp spec, cfg config) (*timedRun, error) {
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	out := &timedRun{}
	refs := []float64{refAlloc().Seconds()}
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
		}
		var took time.Duration
		var err error
		e, took, err = setup(sp, filepath.Join(cfg.dataRoot, fmt.Sprintf("timed-%d", i)), false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		refs = append(refs, refAlloc().Seconds())
		out.setupTimes = append(out.setupTimes, took.Seconds())
		out.setupNorm = append(out.setupNorm, took.Seconds()*refAllocNominal.Seconds()/((refs[i]+refs[i+1])/2))
	}
	out.refAllocMs = 1e3 * mean(refs)
	heapLoaded := liveHeap()
	dr, err := drive(e, cfg.seed, 0, cfg.warmup, cfg.measure, int(cfg.measure/cfg.cycle), false)
	if err != nil {
		return nil, err
	}
	out.timed = summarize(dr)
	if err := checkState(e, dr.ackedUpdates); err != nil {
		return nil, err
	}
	out.retainedBytes = float64(liveHeap()) - float64(heapLoaded)
	if sp.durable {
		var err error
		if out.restart, err = restartReplica(e, cfg.seed); err != nil {
			return nil, err
		}
	}
	if out.committed == 0 {
		return nil, fmt.Errorf("no transaction committed in the measured windows")
	}
	return out, nil
}

// runWorkload runs one workload: the timed run with its gate and, with
// cfg.layers, the layer replay and the traced run. Any gate failure is
// an error and no metrics are returned.
func runWorkload(sp spec, cfg config) (*result, error) {
	t, err := runTimed(sp, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	r := &result{workload: sp.name, attempted: t.attempted, failed: t.failed}
	r.e2e = map[string]float64{
		"txn_per_s_norm": t.txnPerSNorm,
		"setup_s":        median(t.setupNorm),
	}
	windows := int(cfg.measure / cfg.cycle)
	r.notes = append(r.notes,
		fmt.Sprintf("txn_per_s_norm: %d committed of %d attempted in %d windows, %d failed, %d probe hand-offs dropped; reference load %.0f round trips/s (nominal %d)",
			t.committed, t.attempted, windows, t.failed, t.probeDrops, t.refPerS, refNominal),
		fmt.Sprintf("txn_per_s (not normalised): median of the windows %.1f, min %.1f max %.1f", t.txnPerS, t.txnPerSMin, t.txnPerSMax),
		fmt.Sprintf("lat_tail_ms: p%[2]g of n=%[1]d (%[3]d samples beyond it)",
			len(t.all), sp.tailP, len(t.all)-nearestRank(sp.tailP, len(t.all))),
		fmt.Sprintf("setup_s: median of %.3f, which are the set-ups' wall-clock times %.3f x %v / the allocation reference around each (mean %.1f ms)",
			t.setupNorm, t.setupTimes, refAllocNominal, t.refAllocMs))
	for msg, n := range t.errs {
		r.notes = append(r.notes, fmt.Sprintf("failed %d times: %s", n, msg))
	}
	if !cfg.layers {
		return r, nil
	}

	r.layer = map[string]float64{
		"txn_per_s":                      t.txnPerS,
		"host.ref_rtt_per_s":             t.refPerS,
		"setup_wall_s":                   median(t.setupTimes),
		"host.ref_alloc_ms":              t.refAllocMs,
		"lat_p50_ms":                     t.all.at(50),
		"lat_tail_ms":                    t.all.at(sp.tailP),
		"cpu_us_per_txn":                 t.cpuUsPerTxn,
		"failed_frac":                    ratio(float64(t.failed), float64(t.attempted)),
		"pstore.checkpoints":             float64(t.checkpoints),
		"pstore.restart_ms":              float64(t.restart) / 1e6,
		"process.alloc_kb_per_txn":       t.allocKBPerTxn,
		"process.gc_pause_ms":            t.gcPauseMs,
		"process.retained_kb_per_commit": ratio(t.retainedBytes/1024, float64(t.committed)),
	}
	r.notes = append(r.notes,
		classMetrics(r.layer, "read", t.read),
		classMetrics(r.layer, "update", t.update),
		classMetrics(r.layer, "visible_all", t.visible))
	replayed, err := replay(sp, cfg.seed, cfg.replayN, filepath.Join(cfg.dataRoot, "replay"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	for k, v := range replayed {
		r.layer[k] = v
	}
	traced, note, err := runTraced(sp, cfg, t.txnPerSNorm)
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", sp.name, err)
	}
	for k, v := range traced {
		r.layer[k] = v
	}
	r.notes = append(r.notes, note)
	return r, nil
}

// tracedStream and restartStream keep the traced run's and the restart
// check's generators apart from the timed windows' streams.
const (
	tracedStream  = 50
	restartStream = 60
)

// runTraced repeats the workload on a fresh cluster with everything
// attached: the benchmark's own client spans, the cluster's dtrace
// collectors and metrics registry, the history recorder and the
// counting dialer. It returns the traced layer metrics (the tracing
// overhead against the timed run's normalised throughput among them)
// and a note on how complete the trace is.
func runTraced(sp spec, cfg config, timedRate float64) (map[string]float64, string, error) {
	e, _, err := setup(sp, filepath.Join(cfg.dataRoot, "traced"), true)
	if err != nil {
		return nil, "", err
	}
	defer e.close()
	dr, err := drive(e, cfg.seed, tracedStream, cfg.warmup, cfg.tracedMeasure, 1, true)
	if err != nil {
		return nil, "", err
	}
	t := summarize(dr)
	if err := checkState(e, dr.ackedUpdates); err != nil {
		return nil, "", err
	}
	if err := checkHistory(e.c); err != nil {
		return nil, "", err
	}

	b, n := dr.windows[0].begin, dr.windows[0].end
	from, to := b.at, n.at
	bench := append([]span(nil), dr.probeSpans.spans...)
	for i := range dr.sessions {
		bench = append(bench, dr.sessions[i].rec.spans...)
	}
	m := make(map[string]float64)
	// TPC-W interactions begin, execute and commit inside the workload
	// package: there these read 0.
	begin := sortedDurations(bench, "begin", from, to)
	exec := sortedDurations(bench, "exec", from, to)
	commit := sortedDurations(bench, "commit", from, to)
	m["cluster.begin_us_p50"] = percentile(begin, 50)
	m["cluster.begin_us_p99"] = percentile(begin, 99)
	m["cluster.exec_us_p50"] = percentile(exec, 50)
	m["cluster.commit_us_p50"] = percentile(commit, 50)
	m["cluster.commit_us_p99"] = percentile(commit, 99)

	txns := float64(t.committed)
	// A workload without update commits still shows any certifier
	// traffic: the divisor is then 1.
	commits := float64(max(len(t.update), 1))
	m["wire.client_msgs_per_txn"] = ratio(float64(n.clientMsgs-b.clientMsgs), txns)
	m["wire.client_bytes_per_txn"] = ratio(float64(n.clientBytes-b.clientBytes), txns)
	m["wire.cert_msgs_per_commit"] = float64(n.certMsgs-b.certMsgs) / commits
	m["wire.cert_bytes_per_commit"] = float64(n.certBytes-b.certBytes) / commits
	m["wire.replica_bytes_per_txn"] = ratio(float64(n.replicaBytes-b.replicaBytes), txns)

	reg := func(name string) float64 { return n.reg[name] - b.reg[name] }
	m["certifier.abort_frac"] = ratio(reg("sconrep_certifier_conflicts_total"),
		reg("sconrep_certifier_commits_total")+reg("sconrep_certifier_conflicts_total"))
	batches := reg("sconrep_replica_apply_batch_size_count")
	m["replica.apply_batch_mean"] = ratio(reg("sconrep_replica_apply_batch_size_sum"), batches)
	m["replica.reorder_wait_ms_mean"] = 1e3 * ratio(reg("sconrep_replica_reorder_wait_seconds_sum"),
		reg("sconrep_replica_reorder_wait_seconds_count"))
	m["replica.serial_fallback_frac"] = ratio(reg("sconrep_replica_apply_serial_fallbacks_total"), batches)
	m["replica.early_abort_frac"] = ratio(reg("sconrep_replica_early_aborts_total"),
		reg("sconrep_replica_commits_total")+reg("sconrep_replica_aborts_total"))

	cl := clusterSpans(e, dr.epoch)
	selfNs, count, orphans := selfByName(cl, from, to)
	roots := float64(count["client.txn"])
	perTxn := func(name string) float64 { return ratio(float64(selfNs[name])/1e3, roots) }
	m["lb.route_self_us"] = perTxn("lb.route")
	m["replica.exec_self_us"] = perTxn("replica.exec")
	m["certifier.certify_self_us"] = perTxn("certifier.certify")
	m["certifier.log_append_self_us"] = perTxn("certifier.log_append")
	m["replica.version_wait_us"] = perTxn("replica.version_wait")
	m["replica.sync_wait_us"] = perTxn("replica.sync_wait")
	m["replica.commit_us"] = perTxn("replica.commit")
	m["replica.global_wait_us"] = perTxn("replica.global_wait")
	m["replica.refresh_apply_us"] = perTxn("refresh.apply")

	m["process.trace_overhead_frac"] = 1 - ratio(t.txnPerSNorm, timedRate)

	var dropped uint64
	for _, coll := range e.colls {
		dropped += coll.Dropped()
	}
	note := fmt.Sprintf("traced run: %.1f txn/s normalised, %d benchmark spans, %d cluster spans kept (%d orphans, %d evicted from the rings)",
		t.txnPerSNorm, len(bench), len(cl), orphans, dropped)
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, append(bench, cl...)); err != nil {
			return nil, "", fmt.Errorf("-trace-out: %w", err)
		}
	}
	return m, note, nil
}
