package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/lb"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/pstore"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/wal"
	"sconrep/internal/wire"
	"sconrep/internal/workload/tpcw"
	"sconrep/internal/writeset"
)

const (
	// replaySeedStream keeps the replay's generator apart from the
	// sessions' streams of the same seed.
	replaySeedStream = 100
	// replayBatch is the group-apply batch the storage and graph
	// replays use.
	replayBatch = 16
	// forcedAppends bounds the replays that fsync per record.
	forcedAppends = 128
)

// replayInput is what the statement-level replay hands to the
// writeset-level one: how to load an engine, the version the load ends
// at, and certified-order writesets for versions v0+1, v0+2, ...
type replayInput struct {
	load func(*storage.Engine) error
	v0   uint64
	wss  []*writeset.WriteSet
}

// forced is the prefix of the writesets the fsync-per-record replays
// use.
func (in *replayInput) forced() []*writeset.WriteSet {
	return in.wss[:min(len(in.wss), forcedAppends)]
}

func loadedEngine(load func(*storage.Engine) error) (*storage.Engine, error) {
	e := storage.NewEngine()
	if err := load(e); err != nil {
		return nil, err
	}
	return e, nil
}

// usPer is elapsed ÷ n in microseconds.
func usPer(elapsed time.Duration, n int) float64 {
	return ratio(float64(elapsed)/1e3, float64(n))
}

// replay drives each layer's public functions single-goroutine on
// inputs regenerated from the seed and times every call from here. n
// sizes the statement-level input. dir holds the forced logs and the
// pstore directory.
func replay(sp spec, seed int64, n int, dir string) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := make(map[string]float64)
	var in *replayInput
	var err error
	if sp.tpcw {
		in, err = replayTpcwStatements(sp, seed, n, m)
	} else {
		in, err = replayMicroStatements(sp, seed, n, m)
	}
	if err != nil {
		return nil, err
	}
	if len(in.wss) < 2*replayBatch {
		return nil, fmt.Errorf("replay: only %d writesets generated", len(in.wss))
	}
	steps := []func(*replayInput, string, map[string]float64) error{
		replayWire, replayLB, replayCertifier, replayWAL, replayStorage, replayApply, replayRefreshStream, replayPstore,
	}
	for _, step := range steps {
		if err := step(in, dir, m); err != nil {
			return nil, err
		}
	}
	m["replica.apply_headroom"] = ratio(m["replica.apply_refresh_per_s"], m["certifier.certify_per_s"])
	return m, nil
}

// replayMicroStatements times sql and storage on the micro schema and
// produces the writesets by running the generated updates through
// storage.Txn.WriteSet.
func replayMicroStatements(sp spec, seed int64, n int, m map[string]float64) (*replayInput, error) {
	g := newMicroGen(sp, seed, replaySeedStream)
	reads, updates := make([]op, n), make([]op, n)
	for i := 0; i < n; i++ {
		reads[i], updates[i] = g.nextOf(false), g.nextOf(true)
	}

	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := sql.Parse(reads[i].stmt().SQL); err != nil {
			return nil, err
		}
		if _, err := sql.Parse(updates[i].stmt().SQL); err != nil {
			return nil, err
		}
	}
	m["sql.parse_us"] = usPer(time.Since(start), 2*n)

	in := &replayInput{load: sp.load()}
	eng, err := loadedEngine(in.load)
	if err != nil {
		return nil, err
	}
	in.v0 = eng.Version()

	var execRead, execUpdate, commitLocal time.Duration
	for _, o := range reads {
		tx := eng.Begin()
		t := time.Now()
		_, err := o.stmt().Exec(tx, eng, o.key)
		execRead += time.Since(t)
		tx.Abort()
		if err != nil {
			return nil, err
		}
	}
	for _, o := range updates {
		tx := eng.Begin()
		t := time.Now()
		_, err := o.stmt().Exec(tx, eng, o.key)
		execUpdate += time.Since(t)
		if err != nil {
			return nil, err
		}
		in.wss = append(in.wss, tx.WriteSet())
		t = time.Now()
		_, err = tx.CommitLocal()
		commitLocal += time.Since(t)
		if err != nil {
			return nil, err
		}
	}
	m["sql.exec_read_us"] = usPer(execRead, n)
	m["sql.exec_update_us"] = usPer(execUpdate, n)
	m["storage.commit_local_us"] = usPer(commitLocal, n)
	m["storage.read_us_hot_row"] = hotRowRead(eng, in.wss)

	// One replica on a local certifier, no wire: the workload's own
	// mix, so end-to-end latency minus this is the wire share.
	reng, err := loadedEngine(in.load)
	if err != nil {
		return nil, err
	}
	cert := certifier.New(certifier.WithWAL(wal.NewMemory()))
	if err := cert.StartAt(in.v0); err != nil {
		return nil, err
	}
	r := replica.New(replica.Config{ID: 0, EarlyCert: true}, reng, replica.Local(cert))
	defer r.Crash()
	mix := newMicroGen(sp, seed, replaySeedStream+1)
	start = time.Now()
	for i := 0; i < n; i++ {
		o := mix.next()
		tx, err := r.Begin(0, nil)
		if err != nil {
			return nil, err
		}
		if _, err := tx.Exec(o.stmt(), o.key); err != nil {
			return nil, err
		}
		if _, err := tx.Commit(sp.mode == core.Eager); err != nil {
			return nil, err
		}
	}
	m["replica.txn_us"] = usPer(time.Since(start), n)
	return in, nil
}

// replayTpcwStatements runs the TPC-W mix through an in-process
// one-replica cluster. The interactions keep their statements and
// parameters private, so sql and storage times come from the replica's
// existing per-transaction stage timeline instead of direct calls, per
// transaction rather than per statement; the writesets come from the
// certifier's history.
func replayTpcwStatements(sp spec, seed int64, n int, m map[string]float64) (*replayInput, error) {
	names := make([]string, 0, len(tpcw.TxnNames))
	for name := range tpcw.TxnNames {
		names = append(names, name)
	}
	sort.Strings(names)
	parsed := 0
	start := time.Now()
	for rep := 0; rep < 8; rep++ {
		for _, name := range names {
			for _, p := range tpcw.TxnNames[name] {
				if _, err := sql.Parse(p.SQL); err != nil {
					return nil, err
				}
				parsed++
			}
		}
	}
	m["sql.parse_us"] = usPer(time.Since(start), parsed)

	in := &replayInput{load: sp.load()}
	c, err := cluster.New(cluster.Config{Replicas: 1, Mode: sp.mode, Seed: clusterSeed})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.LoadData(in.load); err != nil {
		return nil, err
	}
	sp.register(c)
	tr := obs.NewTraceRecorder(2 * n)
	c.EnableObs(obs.NewRegistry(), tr)
	in.v0 = c.Replica(0).Version()

	s := c.SessionWithID("replay")
	defer s.Close()
	g := newTpcwGen(seed, replaySeedStream)
	start = time.Now()
	for i := 0; i < n; i++ {
		if err := g.next().Run(s, g.ctx); err != nil && !errors.Is(err, tpcw.ErrEmptyCart) {
			return nil, fmt.Errorf("replay: tpcw interaction: %w", err)
		}
	}
	m["replica.txn_us"] = usPer(time.Since(start), n)

	var execRead, execUpdate, commit float64
	var reads, updates int
	for _, t := range tr.Recent(0) {
		if t.Outcome != "commit" {
			continue
		}
		var queries, commitUs float64
		for _, st := range t.Stages {
			switch st.Stage {
			case "Queries":
				queries += float64(st.DurationUs)
			case "Commit":
				commitUs += float64(st.DurationUs)
			}
		}
		if t.ReadOnly {
			reads++
			execRead += queries
		} else {
			updates++
			execUpdate += queries
			commit += commitUs
		}
	}
	m["sql.exec_read_us"] = ratio(execRead, float64(reads))
	m["sql.exec_update_us"] = ratio(execUpdate, float64(updates))
	m["storage.commit_local_us"] = ratio(commit, float64(updates))

	for after := in.v0; ; {
		page := c.Certifier().History(after)
		if len(page) == 0 {
			break
		}
		for _, ref := range page {
			in.wss = append(in.wss, ref.WS)
		}
		after = page[len(page)-1].Version
	}
	m["storage.read_us_hot_row"] = hotRowRead(c.Replica(0).Engine(), in.wss)
	return in, nil
}

// hotRowRead times Txn.Get of the record the writesets wrote most
// often, on an engine that has applied them: the cost of reading
// through the longest version chain the input produced.
func hotRowRead(eng *storage.Engine, wss []*writeset.WriteSet) float64 {
	type rec struct{ table, key string }
	writes := make(map[rec]int)
	var hot rec
	for _, ws := range wss {
		for i := range ws.Items {
			r := rec{ws.Items[i].Table, ws.Items[i].Key}
			writes[r]++
			// Ties go to the earliest record, so the choice does not
			// depend on map order.
			if writes[r] > writes[hot] {
				hot = r
			}
		}
	}
	const gets = 4096
	tx := eng.Begin()
	defer tx.Abort()
	start := time.Now()
	for i := 0; i < gets; i++ {
		if _, _, err := tx.Get(hot.table, hot.key); err != nil {
			return 0
		}
	}
	return usPer(time.Since(start), gets)
}

// replayWire times one client↔gateway↔replica round trip (BeginTx +
// Abort) on an idle networked cluster.
func replayWire(in *replayInput, _ string, m map[string]float64) error {
	c, err := cluster.NewNetworked(cluster.Config{Replicas: 1, Mode: core.Coarse, Seed: clusterSeed}, cluster.NetConfig{})
	if err != nil {
		return err
	}
	defer c.Close()
	wc, err := wire.Dial(c.GatewayAddr(), "replay-rtt")
	if err != nil {
		return err
	}
	defer wc.Close()
	const trips = 1000
	start := time.Now()
	for i := 0; i < trips; i++ {
		if _, err := wc.BeginTx(""); err != nil {
			return err
		}
		if err := wc.Abort(); err != nil {
			return err
		}
	}
	// Each iteration is two request/response exchanges.
	m["wire.rpc_rtt_us"] = usPer(time.Since(start), 2*trips)
	return nil
}

// idleNode is a replica that is always up and never busy, for timing
// the balancer alone.
type idleNode int

func (n idleNode) ID() int       { return int(n) }
func (n idleNode) Active() int   { return 0 }
func (n idleNode) Crashed() bool { return false }

func replayLB(in *replayInput, _ string, m map[string]float64) error {
	nodes := make([]lb.Node, numReplicas)
	for i := range nodes {
		nodes[i] = idleNode(i)
	}
	bal := lb.New(core.Fine, nodes)
	bal.RegisterTxn("replay", []string{"t"})
	const calls = 20000
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := bal.Dispatch("s", "replay"); err != nil {
			return err
		}
		bal.ObserveCommit("s", replica.CommitResult{Version: uint64(i + 1), WrittenTables: []string{"t"}})
	}
	m["lb.dispatch_us"] = usPer(time.Since(start), calls)
	return nil
}

func newCertifier(log *wal.Log, v0 uint64) (*certifier.Certifier, error) {
	c := certifier.New(certifier.WithWAL(log))
	return c, c.StartAt(v0)
}

// certifyAll certifies wss in order from origin 0, each at the
// certifier's current version, so every one commits.
func certifyAll(c *certifier.Certifier, wss []*writeset.WriteSet) error {
	for i, ws := range wss {
		d, err := c.Certify(0, uint64(i+1), c.Version(), ws)
		if err != nil {
			return err
		}
		if !d.Commit {
			return fmt.Errorf("replay: certify %d aborted", i)
		}
	}
	return nil
}

func replayCertifier(in *replayInput, dir string, m map[string]float64) error {
	c, err := newCertifier(wal.NewMemory(), in.v0)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := certifyAll(c, in.wss); err != nil {
		return err
	}
	el := time.Since(start)
	m["certifier.certify_us"] = usPer(el, len(in.wss))
	m["certifier.certify_per_s"] = ratio(float64(len(in.wss)), el.Seconds())

	// Forced log, 1 and 2 concurrent callers: elapsed ÷ commits, so a
	// group commit that shares one fsync shows as c2 ≈ c1/2.
	forced := in.forced()
	for callers := 1; callers <= 2; callers++ {
		log, err := wal.Open(filepath.Join(dir, fmt.Sprintf("certify-c%d.wal", callers)))
		if err != nil {
			return err
		}
		c, err := newCertifier(log, in.v0)
		if err != nil {
			log.Close()
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, callers)
		start := time.Now()
		for k := 0; k < callers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for i := k; i < len(forced); i += callers {
					// An abort (two callers on one record) is still a
					// decision; it is rare and costs no force.
					if _, err := c.Certify(0, uint64(i+1), c.Version(), forced[i]); err != nil {
						errs[k] = err
						return
					}
				}
			}(k)
		}
		wg.Wait()
		el := time.Since(start)
		log.Close()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		m[fmt.Sprintf("certifier.certify_forced_us_c%d", callers)] = usPer(el, len(forced))
	}
	return nil
}

func replayWAL(in *replayInput, dir string, m map[string]float64) error {
	mem := wal.NewMemory()
	start := time.Now()
	for i, ws := range in.wss {
		if err := mem.Append(&wal.Record{Version: in.v0 + uint64(i) + 1, TxnID: uint64(i + 1), WriteSet: *ws}); err != nil {
			return err
		}
	}
	m["wal.append_us"] = usPer(time.Since(start), len(in.wss))
	m["wal.bytes_per_record"] = ratio(float64(len(mem.MemoryBytes())), float64(len(in.wss)))

	log, err := wal.Open(filepath.Join(dir, "append.wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	forced := in.forced()
	start = time.Now()
	for i, ws := range forced {
		if err := log.Append(&wal.Record{Version: in.v0 + uint64(i) + 1, TxnID: uint64(i + 1), WriteSet: *ws}); err != nil {
			return err
		}
	}
	m["wal.append_forced_us"] = usPer(time.Since(start), len(forced))
	return nil
}

// disjointRuns cuts wss into consecutive runs of at most replayBatch
// pairwise record-disjoint writesets — InstallWriteSets' precondition.
func disjointRuns(wss []*writeset.WriteSet) [][]*writeset.WriteSet {
	var runs [][]*writeset.WriteSet
	seen := make(map[string]bool)
	from := 0
	for i, ws := range wss {
		clash := i-from == replayBatch
		for _, k := range ws.Keys() {
			if seen[k] {
				clash = true
			}
		}
		if clash {
			runs = append(runs, wss[from:i])
			from = i
			clear(seen)
		}
		for _, k := range ws.Keys() {
			seen[k] = true
		}
	}
	return append(runs, wss[from:])
}

func replayStorage(in *replayInput, _ string, m map[string]float64) error {
	eng, err := loadedEngine(in.load)
	if err != nil {
		return err
	}
	var gb writeset.GraphBuilder
	var graph, apply time.Duration
	for i := 0; i < len(in.wss); i += replayBatch {
		batch := in.wss[i:min(i+replayBatch, len(in.wss))]
		t := time.Now()
		gb.Build(batch)
		graph += time.Since(t)
		t = time.Now()
		err := eng.ApplyWriteSetBatch(batch, in.v0+uint64(i)+1)
		apply += time.Since(t)
		if err != nil {
			return err
		}
	}
	m["writeset.graph_build_us_per_ws"] = usPer(graph, len(in.wss))
	m["storage.apply_batch_us_per_ws"] = usPer(apply, len(in.wss))

	eng, err = loadedEngine(in.load)
	if err != nil {
		return err
	}
	var install time.Duration
	v := in.v0 + 1
	for _, run := range disjointRuns(in.wss) {
		t := time.Now()
		err := eng.InstallWriteSets(run, v)
		v += uint64(len(run))
		eng.PublishVersion(v - 1)
		install += time.Since(t)
		if err != nil {
			return err
		}
	}
	m["storage.install_us_per_ws"] = usPer(install, len(in.wss))
	return nil
}

// feed is a replica.CertService that hands a replica pre-certified
// refreshes as fast as it takes them, so the replay times the apply
// pipeline and not the certifier.
type feed struct {
	mu   sync.Mutex
	cond *sync.Cond
	// guarded by mu
	queue []certifier.Refresh
	// guarded by mu
	closed bool
}

func newFeed(refs []certifier.Refresh) *feed {
	f := &feed{queue: refs}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// feedChunk is how many refreshes one Take delivers: a mailbox that
// stays ahead of the applier.
const feedChunk = 256

func (f *feed) Take() ([]certifier.Refresh, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.queue) == 0 && !f.closed {
		f.cond.Wait()
	}
	if len(f.queue) == 0 {
		return nil, false
	}
	n := min(feedChunk, len(f.queue))
	out := f.queue[:n]
	f.queue = f.queue[n:]
	return out, true
}

func (f *feed) Pending() []certifier.Refresh {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]certifier.Refresh(nil), f.queue...)
}

func (f *feed) QueueLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue)
}

func (f *feed) stop() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

func (f *feed) Certify(int, uint64, uint64, *writeset.WriteSet, dtrace.SpanContext) (certifier.Decision, error) {
	return certifier.Decision{}, errors.New("replay: feed does not certify")
}
func (f *feed) Subscribe(int) replica.RefreshSource { return f }
func (f *feed) Unsubscribe(int)                     { f.stop() }
func (f *feed) Applied(int, uint64)                 {}
func (f *feed) GlobalCommitted(uint64) <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
func (f *feed) History(uint64) []certifier.Refresh { return nil }

// replayApply times one subscribed replica applying the certified
// writesets until WaitVersion(last).
func replayApply(in *replayInput, _ string, m map[string]float64) error {
	eng, err := loadedEngine(in.load)
	if err != nil {
		return err
	}
	refs := make([]certifier.Refresh, len(in.wss))
	for i, ws := range in.wss {
		refs[i] = certifier.Refresh{TxnID: uint64(i + 1), Version: in.v0 + uint64(i) + 1, Origin: 0, WS: ws}
	}
	start := time.Now()
	r := replica.New(replica.Config{ID: 1, EarlyCert: true}, eng, newFeed(refs))
	defer r.Crash()
	if err := r.WaitVersion(in.v0 + uint64(len(refs))); err != nil {
		return err
	}
	m["replica.apply_refresh_per_s"] = ratio(float64(len(refs)), time.Since(start).Seconds())
	return nil
}

// replayRefreshStream times the refresh stream over loopback: certify
// the writesets while a DialCertifier subscription drains them.
func replayRefreshStream(in *replayInput, _ string, m map[string]float64) error {
	// No decision log: the stream's producer should cost as little as a
	// certifier can, so the rate is the stream's and not the log's.
	cert, err := newCertifier(nil, in.v0)
	if err != nil {
		return err
	}
	srv, err := wire.ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cli := wire.DialCertifier(srv.Addr(), 1, in.v0)
	defer cli.Close()
	q := cli.Subscribe(1)
	for deadline := time.Now().Add(5 * time.Second); !cli.Ready(0); {
		if time.Now().After(deadline) {
			return errors.New("replay: refresh stream never came up")
		}
		time.Sleep(time.Millisecond)
	}
	last := in.v0 + uint64(len(in.wss))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seen := uint64(0); seen < last; {
			batch, ok := q.Take()
			if !ok {
				return
			}
			seen = batch[len(batch)-1].Version
		}
	}()
	start := time.Now()
	if err := certifyAll(cert, in.wss); err != nil {
		return err
	}
	select {
	case <-done:
	case <-time.After(quiesceTimeout):
		return errors.New("replay: refresh stream stalled")
	}
	m["wire.stream_refresh_per_s"] = ratio(float64(len(in.wss)), time.Since(start).Seconds())
	return nil
}

func replayPstore(in *replayInput, dir string, m map[string]float64) error {
	// Checkpoints only when asked for, so LogApplied is timed alone.
	st, err := pstore.Open(filepath.Join(dir, "pstore"), pstore.Options{CheckpointEvery: 1 << 40})
	if err != nil {
		return err
	}
	defer st.Close()
	eng := st.Engine()
	if err := in.load(eng); err != nil {
		return err
	}
	if err := st.StartAt(in.v0); err != nil {
		return err
	}
	var logged time.Duration
	for i := 0; i < len(in.wss); i += replayBatch {
		batch := in.wss[i:min(i+replayBatch, len(in.wss))]
		v := in.v0 + uint64(i) + 1
		if err := eng.ApplyWriteSetBatch(batch, v); err != nil {
			return err
		}
		t := time.Now()
		err := st.LogApplied(batch, v)
		logged += time.Since(t)
		if err != nil {
			return err
		}
	}
	m["pstore.log_applied_us_per_ws"] = usPer(logged, len(in.wss))
	m["pstore.wal_bytes_per_commit"] = ratio(float64(st.Stats().WALBytes), float64(len(in.wss)))
	start := time.Now()
	if err := st.CheckpointNow(); err != nil {
		return err
	}
	m["pstore.checkpoint_ms"] = float64(time.Since(start)) / 1e6
	return nil
}
