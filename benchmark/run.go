package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/wal"
)

const (
	numReplicas = 3
	// numSessions is the closed-loop client count: one per core of the
	// 2-core host the benchmark is sized for.
	numSessions = 2
	// retryFor bounds re-issues of a transaction after a certification
	// or early-certification abort by time, not by count: a hot-row
	// collision keeps recurring for as long as the loser's replica has
	// not applied the winner's commit, and that is a matter of
	// scheduler stalls (4 ms each, sometimes several in a row), not of
	// attempts.
	retryFor = 2 * time.Second
	// probeEvery hands one in this many acknowledged updates to the
	// visibility probe.
	probeEvery = 8
	// clusterSeed is cluster.Config.Seed. It stays fixed: -seed drives
	// the generator only.
	clusterSeed = 1
	// spanRingCapacity is each node's dtrace ring in a traced run; an
	// 8 s run of the busiest workload stays below it.
	spanRingCapacity = 1 << 18
)

// env is one built cluster and what the benchmark attached to it.
type env struct {
	sp      spec
	c       *cluster.Cluster
	certWAL *wal.Log
	dir     string

	// Traced runs only.
	reg   *obs.Registry
	colls map[string]*dtrace.Collector
	links linkCounters
}

// setup builds the workload's networked cluster (3 replicas, certifier
// and gateway over loopback TCP, zero latency model), loads it and
// registers the transactions. The returned duration is setup_s: it
// ends when every refresh stream is up and the data is loaded. dir is
// used by durable workloads only.
func setup(sp spec, dir string, traced bool) (*env, time.Duration, error) {
	start := time.Now()
	e := &env{sp: sp, dir: dir}
	cfg := cluster.Config{
		Replicas:      numReplicas,
		Mode:          sp.mode,
		Seed:          clusterSeed,
		RecordHistory: traced,
	}
	if sp.durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		w, err := wal.Open(filepath.Join(dir, "cert.wal"))
		if err != nil {
			return nil, 0, err
		}
		e.certWAL = w
		cfg.WAL = w
		cfg.DataDir = dir
	}
	var ncfg cluster.NetConfig
	if traced {
		e.links = newLinkCounters()
		ncfg.DialerFor = e.links.dialerFor
	}
	c, err := cluster.NewNetworked(cfg, ncfg)
	if err != nil {
		e.close()
		return nil, 0, err
	}
	e.c = c
	if err := c.LoadData(sp.load()); err != nil {
		e.close()
		return nil, 0, err
	}
	sp.register(c)
	if traced {
		e.reg = obs.NewRegistry()
		c.EnableObs(e.reg, nil)
		e.colls = c.EnableDTrace(spanRingCapacity)
	}
	return e, time.Since(start), nil
}

// close tears the cluster down and removes a durable workload's data.
func (e *env) close() {
	if e.c != nil {
		e.c.Close()
	}
	if e.certWAL != nil {
		e.certWAL.Close()
	}
	if e.sp.durable && e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// sample is one finished transaction as the client saw it.
type sample struct {
	// end is when the final acknowledgment (or failure) arrived,
	// nanoseconds since the run's epoch.
	end int64
	// lat is Session.Begin of the first attempt → that moment.
	lat    int64
	update bool
	failed bool
}

// sessionLog is what one closed-loop session goroutine produced.
type sessionLog struct {
	samples []sample
	// ackedUpdates counts update commits acknowledged since the
	// cluster started (warm-up included): the lost-update oracle's
	// expected delta.
	ackedUpdates int64
	probeDrops   int64
	// errs counts failed transactions by error message.
	errs map[string]int
	rec  *spanRecorder
}

type probeReq struct {
	submit  int64
	version uint64
	parent  spanRef
}

// snapshot is the process state at a measurement boundary.
type snapshot struct {
	at    int64 // ns since epoch
	cpu   time.Duration
	mem   runtime.MemStats
	ckpts uint64
	// Traced runs only: link counters and the registry's instruments.
	clientMsgs, clientBytes, certMsgs, certBytes, replicaBytes int64
	reg                                                        map[string]float64
}

func takeSnapshot(epoch time.Time, e *env) snapshot {
	var s snapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&s.mem)
	for i := 0; i < numReplicas; i++ {
		if st := e.c.Store(i); st != nil {
			s.ckpts += st.Stats().CheckpointCount
		}
	}
	if e.reg != nil {
		s.clientMsgs, s.clientBytes = e.links.sum(cluster.LinkClient)
		s.certMsgs, s.certBytes = e.links.sum("cert/")
		_, s.replicaBytes = e.links.sum("replica/")
		s.reg = scrape(e.reg)
	}
	s.at = int64(time.Since(epoch))
	return s
}

// window is one stretch of the measurement in which the sessions ran:
// [begin, end).
type window struct{ begin, end snapshot }

// driveResult is the raw outcome of one closed-loop run.
type driveResult struct {
	epoch   time.Time
	windows []window
	// refRates are the reference load's round trips per second in the
	// slices before, between and after the windows: one more than there
	// are windows.
	refRates     []float64
	sessions     []sessionLog
	visible      []sample
	probeSpans   *spanRecorder
	ackedUpdates int64
}

// drive runs the closed loop: numSessions sessions with zero think
// time, each one gateway connection driven by one goroutine, plus the
// visibility probe. It warms up, measures for the given time split into
// equal cycles, and stops. A cycle is one slice of the reference load
// (one part in refShare, sessions parked) and one window of the
// workload. Session i draws from generator stream streamBase+i.
func drive(e *env, seed int64, streamBase int, warmup, measure time.Duration, cycles int, traced bool) (*driveResult, error) {
	c := e.c
	ref, err := newRefLoad()
	if err != nil {
		return nil, fmt.Errorf("reference load: %w", err)
	}
	defer ref.close()
	res := &driveResult{epoch: time.Now(), sessions: make([]sessionLog, numSessions)}
	var stop atomic.Bool
	stile := newTurnstile()
	// Sized so a probe that lags a few transactions behind drops
	// nothing; a full channel means the probe cannot keep up and the
	// hand-off is dropped (and counted), never blocked on.
	probes := make(chan probeReq, 64)

	var probeWG sync.WaitGroup
	if traced {
		res.probeSpans = newSpanRecorder(res.epoch, numSessions)
	}
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for p := range probes {
			h := res.probeSpans.start("visible_all", p.parent)
			for i := 0; i < numReplicas; i++ {
				// Only a crashed replica errors, and the gate's
				// version check then fails the run.
				_ = c.Replica(i).WaitVersion(p.version)
			}
			res.probeSpans.end(h)
			now := int64(time.Since(res.epoch))
			res.visible = append(res.visible, sample{end: now, lat: now - p.submit, update: true})
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < numSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			log := &res.sessions[i]
			log.samples = make([]sample, 0, 1<<16)
			log.errs = make(map[string]int)
			if traced {
				log.rec = newSpanRecorder(res.epoch, i)
			}
			s := c.SessionWithID(fmt.Sprintf("bench-%d", i))
			defer s.Close()
			cl := newClient(e.sp, c, seed, streamBase+i)
			for !stop.Load() {
				stile.pass()
				update := cl.next()
				root := log.rec.start("txn", spanRef{})
				parent := log.rec.ref(root)
				submit := int64(time.Since(res.epoch))
				out := cl.attempt(s, log.rec, parent)
				for out.err != nil && retryable(out.err) && time.Since(res.epoch)-time.Duration(submit) < retryFor {
					out = cl.attempt(s, log.rec, parent)
				}
				log.rec.end(root)
				now := int64(time.Since(res.epoch))
				log.samples = append(log.samples, sample{end: now, lat: now - submit, update: update, failed: out.err != nil})
				if out.err != nil {
					log.errs[out.err.Error()]++
					continue
				}
				if out.version == 0 {
					continue
				}
				log.ackedUpdates++
				if log.ackedUpdates%probeEvery == 0 {
					select {
					case probes <- probeReq{submit: submit, version: out.version, parent: parent}:
					default:
						log.probeDrops++
					}
				}
			}
		}(i)
	}

	cycle := measure / time.Duration(cycles)
	slice := cycle / refShare
	refSlice := func() {
		stile.shut(numSessions)
		res.refRates = append(res.refRates, ref.run(slice))
		stile.open()
	}
	time.Sleep(warmup)
	for w := 0; w < cycles; w++ {
		refSlice()
		begin := takeSnapshot(res.epoch, e)
		time.Sleep(cycle - slice)
		res.windows = append(res.windows, window{begin, takeSnapshot(res.epoch, e)})
	}
	refSlice()
	stop.Store(true)
	wg.Wait()
	close(probes)
	probeWG.Wait()
	for i := range res.sessions {
		res.ackedUpdates += res.sessions[i].ackedUpdates
	}
	return res, nil
}

// latencies is one latency class's measured samples in milliseconds,
// sorted.
type latencies []float64

func sortedMs(latNs []int64) latencies {
	ms := make(latencies, len(latNs))
	for i, v := range latNs {
		ms[i] = float64(v) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// at is the nearest-rank p-th percentile; 0 for an empty class.
func (l latencies) at(p float64) float64 { return percentile(l, p) }

// p99 is the value reported under a class's _p99 name and the
// percentile it really is: p99 when the class has at least ten samples
// beyond it, else the highest percentile that has (p99 itself when the
// class is too small for any).
func (l latencies) p99() (value, p float64) {
	p = 99
	if top := highestPercentile(len(l)); top > 0 && top < p {
		p = top
	}
	return l.at(p), p
}

// timed is what the measured windows of one run report together.
type timed struct {
	txnPerS, txnPerSMin, txnPerSMax float64
	// refPerS is the reference load's mean rate over its slices, and
	// txnPerSNorm the run's throughput at the nominal reference rate:
	// commits per second of window time ÷ refPerS × refNominal.
	refPerS, txnPerSNorm         float64
	read, update, visible, all   latencies
	cpuUsPerTxn                  float64
	attempted, failed, committed int
	probeDrops                   int64
	allocKBPerTxn, gcPauseMs     float64
	checkpoints                  uint64
	errs                         map[string]int
}

// windowOf returns the window a moment falls into, -1 for one outside
// the windows: in the warm-up, or while a reference slice was being
// set up or run.
func (res *driveResult) windowOf(at int64) int {
	for w := range res.windows {
		if at >= res.windows[w].begin.at && at < res.windows[w].end.at {
			return w
		}
	}
	return -1
}

// summarize reduces a drive to its metrics: the raw throughput and CPU
// per transaction are medians over the windows, the normalised
// throughput is a ratio of the two loads' rates over the whole run, and
// latency percentiles are taken over the samples of all windows
// together.
func summarize(res *driveResult) timed {
	out := timed{errs: make(map[string]int)}
	windows := len(res.windows)
	committed := make([]int, windows)
	var read, update, visible []int64
	for i := range res.sessions {
		log := &res.sessions[i]
		out.probeDrops += log.probeDrops
		for msg, n := range log.errs {
			out.errs[msg] += n
		}
		for _, s := range log.samples {
			w := res.windowOf(s.end)
			if w < 0 {
				continue
			}
			out.attempted++
			switch {
			case s.failed:
				out.failed++
			case s.update:
				committed[w]++
				update = append(update, s.lat)
			default:
				committed[w]++
				read = append(read, s.lat)
			}
		}
	}
	for _, s := range res.visible {
		if res.windowOf(s.end) >= 0 {
			visible = append(visible, s.lat)
		}
	}
	rates, cpus := make([]float64, windows), make([]float64, windows)
	var windowNs int64
	for w, n := range committed {
		begin, end := &res.windows[w].begin, &res.windows[w].end
		rates[w] = ratio(float64(n), float64(end.at-begin.at)/1e9)
		cpus[w] = ratio(float64(end.cpu-begin.cpu)/1e3, float64(n))
		out.committed += n
		windowNs += end.at - begin.at
	}
	out.refPerS = mean(res.refRates)
	out.txnPerSNorm = ratio(float64(out.committed), float64(windowNs)/1e9) * ratio(refNominal, out.refPerS)
	out.txnPerS = median(rates)
	out.txnPerSMin, out.txnPerSMax = minMax(rates)
	out.cpuUsPerTxn = median(cpus)
	out.read, out.update, out.visible = sortedMs(read), sortedMs(update), sortedMs(visible)
	out.all = sortedMs(append(read, update...))
	first, last := &res.windows[0].begin, &res.windows[windows-1].end
	out.allocKBPerTxn = ratio(float64(last.mem.TotalAlloc-first.mem.TotalAlloc)/1024, float64(out.committed))
	out.gcPauseMs = float64(last.mem.PauseTotalNs-first.mem.PauseTotalNs) / 1e6
	out.checkpoints = last.ckpts - first.ckpts
	return out
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
