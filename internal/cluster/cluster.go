// Package cluster assembles the replicated database of Figure 2: one
// certifier, N replicas (proxy + storage engine) and a gateway (the
// load balancer), each a node of its own (node.go) that talks to the
// others only by messages over loopback TCP. Simulated costs come from
// a latency model: the network's one-way delay is charged per message
// on the link that carries it, the rest inside the node that pays it.
//
// Clients interact through Sessions, which reproduce the paper's
// client path: every interaction is a message to the gateway,
// transactions are tagged there with the minimum start version their
// consistency mode requires, and commit acknowledgments feed the
// balancer's version accounting.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/history"
	"sconrep/internal/latency"
	"sconrep/internal/lb"
	"sconrep/internal/metrics"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/pstore"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/wal"
	"sconrep/internal/wire"
)

// Config describes a cluster.
type Config struct {
	// Replicas is the number of database replicas (1–64).
	Replicas int
	// Mode is the consistency configuration.
	Mode core.Mode
	// Latency is the simulated cost model; the zero Model injects no
	// delays (useful for correctness tests). Its OneWay is charged per
	// message on every link (see NewNetworked).
	Latency latency.Model
	// DisableEarlyCert turns off early certification (ablation).
	DisableEarlyCert bool
	// Seed makes injected jitter deterministic.
	Seed int64
	// WAL, when non-nil, backs the certifier's decision log; nil uses
	// an in-memory log.
	WAL *wal.Log
	// RecordHistory enables the consistency-checking event recorder.
	RecordHistory bool
	// DataDir, when non-empty, gives every replica a persistent
	// storage backend rooted at DataDir/replica-<i>: applied writesets
	// are WAL-logged and asynchronous fuzzy checkpoints bound restart
	// cost to the suffix since the last one (KillReplica/
	// RestartReplica exercise the kill -9 → disk-restart cycle). Empty
	// keeps the paper's in-memory replicas.
	DataDir string
	// CheckpointEvery is the number of logged versions between
	// automatic fuzzy checkpoints on durable replicas (0 = the pstore
	// default).
	CheckpointEvery uint64
	// Shards partitions the certifier into that many per-shard
	// sequencers (0 or 1 = the paper's single sequencer).
	Shards int
	// ShardTables pins tables to shards explicitly; unlisted tables
	// hash deterministically over [0, Shards). An entry naming a shard
	// the certifier will not have is refused, on an unsharded cluster
	// too: its one shard is shard 0.
	ShardTables map[string]int
	// ReplicaShards, when non-nil, gives replica i the partial refresh
	// subscription ReplicaShards[i] (a nil entry = all shards): versions
	// certified entirely elsewhere reach that replica as skip markers,
	// and the balancer routes transactions only to replicas covering
	// their table-set's shards. Must have one entry per replica when
	// set, every ID in [0, Shards) — [0, 1) on an unsharded cluster.
	ReplicaShards [][]int
}

// Cluster is a running replicated database: its nodes, and the client
// side of the sessions that talk to its gateway.
type Cluster struct {
	cfg  Config
	ncfg NetConfig
	// The nodes, and what they run: certNode's certifier, the replica
	// nodes' proxies, the gateway's balancer.
	certNode *CertifierNode
	nodes    []*ReplicaNode
	gateway  *GatewayNode
	cert     *certifier.Certifier
	replicas []*replica.Replica
	balancer *lb.LoadBalancer
	coll     *metrics.Collector
	rec      *history.Recorder
	nextSess atomic.Int64
	nextTxn  atomic.Uint64
	loaded   bool
	// commitObs, when set, observes every committed transaction's
	// runtime table accesses (see ObserveCommits). Set once, before
	// serving traffic.
	commitObs func(txnName string, readTables, writtenTables []string)
	// tracer mints client.txn root spans; nil until EnableDTrace (set
	// before traffic, so plain field access suffices).
	tracer *dtrace.Tracer
	// readDelay is the per-mode read-start-delay histogram fed by
	// finished; nil until EnableObs.
	readDelay atomic.Pointer[obs.Histogram]

	// loadFn is the deterministic LoadData bootstrap, kept so a disk
	// restart can rebuild an empty data directory. Set before traffic.
	loadFn func(e *storage.Engine) error
	// recoveryHist observes each disk restart's recovery time; nil
	// until EnableObs, which runs before traffic.
	recoveryHist *obs.Histogram
}

// Store returns replica i's persistent backend, nil for in-memory
// replicas. The store is live: CheckpointNow forces a fuzzy
// checkpoint, and KillReplica/RestartReplica abandon and replace it.
func (c *Cluster) Store(i int) *pstore.Store { return c.nodes[i].Store() }

// storeDir is replica i's data directory under Config.DataDir; empty
// for an in-memory cluster.
func (c *Cluster) storeDir(i int) string {
	if c.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(c.cfg.DataDir, fmt.Sprintf("replica-%d", i))
}

// certifierConfig validates cfg and derives the certifier's
// configuration from it. An unsharded cluster is the one-shard
// configuration.
func (cfg Config) certifierConfig() (CertifierConfig, error) {
	if cfg.Replicas < 1 || cfg.Replicas > 64 {
		return CertifierConfig{}, fmt.Errorf("cluster: replica count %d out of range [1,64]", cfg.Replicas)
	}
	smap, err := shard.New(max(cfg.Shards, 1), cfg.ShardTables)
	if err != nil {
		return CertifierConfig{}, fmt.Errorf("cluster: %w", err)
	}
	if cfg.ReplicaShards != nil && len(cfg.ReplicaShards) != cfg.Replicas {
		return CertifierConfig{}, fmt.Errorf("cluster: ReplicaShards has %d entries for %d replicas", len(cfg.ReplicaShards), cfg.Replicas)
	}
	for i, served := range cfg.ReplicaShards {
		if err := checkShards(fmt.Sprintf("ReplicaShards[%d]", i), served, smap.N()); err != nil {
			return CertifierConfig{}, err
		}
	}
	return CertifierConfig{
		Shards:  smap,
		Eager:   cfg.Mode == core.Eager,
		WAL:     cfg.WAL,
		Latency: latency.NewSource(cfg.Latency, cfg.Seed),
	}, nil
}

// replicaConfig is replica i's proxy configuration.
func (c *Cluster) replicaConfig(i int) replica.Config {
	return replica.Config{
		ID:        i,
		EarlyCert: !c.cfg.DisableEarlyCert,
		Latency:   latency.NewSource(c.cfg.Latency, c.cfg.Seed+int64(i)*7919+1),
	}
}

// replicaShards returns replica i's subscription shard set (nil = all).
func (c *Cluster) replicaShards(i int) []int {
	if c.cfg.ReplicaShards == nil {
		return nil
	}
	return c.cfg.ReplicaShards[i]
}

// servedShards is Config.ReplicaShards in the balancer's form (see
// GatewayConfig.ReplicaShards): nil unless the cluster runs with partial
// replica subscriptions.
func (c *Cluster) servedShards() map[int][]int {
	if c.cfg.ReplicaShards == nil {
		return nil
	}
	served := make(map[int][]int, len(c.cfg.ReplicaShards))
	for i, s := range c.cfg.ReplicaShards {
		if s != nil {
			served[i] = s
		}
	}
	return served
}

// New builds and starts a cluster on loopback with the default wire
// configuration: NewNetworked(cfg, NetConfig{}).
func New(cfg Config) (*Cluster, error) { return NewNetworked(cfg, NetConfig{}) }

// finished is every replica's OnFinish hook. A committed transaction's
// timeline feeds Figure 4's stage means and the sync-delay series — the
// global stage under ESC, the version stage under the lazy modes — and
// every transaction's version stage the read-start-delay histogram.
func (c *Cluster) finished(tl metrics.Timeline, committed, readOnly bool) {
	start := tl.Stage(metrics.StageVersion)
	if h := c.readDelay.Load(); h != nil {
		h.Observe(start)
	}
	if !committed {
		return
	}
	syncDelay := start
	if c.cfg.Mode == core.Eager {
		syncDelay = tl.Stage(metrics.StageGlobal)
	}
	c.coll.RecordTimeline(tl, !readOnly, syncDelay)
}

// LoadData bootstraps every replica with identical initial data by
// running load against each engine, then aligns the certifier's
// version counter with the replicas. load must be deterministic.
func (c *Cluster) LoadData(load func(e *storage.Engine) error) error {
	if c.loaded {
		return errors.New("cluster: LoadData called twice")
	}
	var v0 uint64
	for i, r := range c.replicas {
		if err := load(r.Engine()); err != nil {
			return fmt.Errorf("cluster: loading replica %d: %w", i, err)
		}
		if i == 0 {
			v0 = r.Engine().Version()
		} else if got := r.Engine().Version(); got != v0 {
			return fmt.Errorf("cluster: non-deterministic load: replica 0 at %d, replica %d at %d", v0, i, got)
		}
	}
	if err := c.cert.StartAt(v0); err != nil {
		return err
	}
	// Durable replicas: the bulk load is not logged (recovery re-runs
	// it instead), so align each store's log with the loaded version
	// and remember the loader for disk restarts.
	for i := range c.nodes {
		if st := c.Store(i); st != nil {
			if err := st.StartAt(v0); err != nil {
				return fmt.Errorf("cluster: aligning store %d: %w", i, err)
			}
		}
	}
	c.loadFn = load
	c.loaded = true
	return nil
}

// KillReplica simulates kill -9 on replica i (ReplicaNode.Kill).
func (c *Cluster) KillReplica(i int) { c.nodes[i].Kill() }

// RestartReplica brings killed replica i back (ReplicaNode.Restart); a
// durable one re-runs the LoadData function when its directory holds no
// checkpoint.
func (c *Cluster) RestartReplica(i int) error {
	if err := c.nodes[i].Restart(c.loadFn); err != nil {
		return err
	}
	if st := c.Store(i); st != nil && c.recoveryHist != nil {
		c.recoveryHist.Observe(st.Stats().RecoveryTook)
	}
	return nil
}

// ExecSchemaAll applies a DDL statement (CREATE TABLE / CREATE INDEX)
// to every replica's engine. Schema changes are not replicated through
// the commit protocol and bump no versions.
func (c *Cluster) ExecSchemaAll(q string) error {
	for i, r := range c.replicas {
		e := r.Engine()
		tx := e.Begin()
		_, err := sql.Exec(tx, e, q)
		tx.Abort() // DDL is engine-level; nothing to commit
		if err != nil {
			return fmt.Errorf("cluster: schema on replica %d: %w", i, err)
		}
	}
	return nil
}

// RegisterTxn records the combined static table-set of a named
// transaction's prepared statements — the workload information the
// fine-grained mode exploits.
func (c *Cluster) RegisterTxn(name string, stmts ...*sql.Prepared) {
	seen := map[string]bool{}
	var tables []string
	for _, p := range stmts {
		for _, t := range p.TableSet {
			if !seen[t] {
				seen[t] = true
				tables = append(tables, t)
			}
		}
	}
	c.balancer.RegisterTxn(name, tables)
}

// EnableObs attaches the whole cluster — certifier, every replica,
// and the load balancer — to a live metrics registry, and (when tr is
// non-nil) records per-transaction timeline traces. Call after New and
// before serving traffic; a nil registry is a no-op, leaving the
// hot paths with their zero-cost nil guards.
func (c *Cluster) EnableObs(reg *obs.Registry, tr *obs.TraceRecorder) {
	if reg == nil {
		return
	}
	c.cert.EnableObs(reg)
	c.readDelay.Store(reg.Histogram("sconrep_read_start_delay_seconds",
		"Delay between a transaction's arrival at its replica and its first possible read: the synchronization wait the consistency mode imposes, split by mode.",
		nil, "mode", c.cfg.Mode.String()))
	for i, r := range c.replicas {
		r.EnableObs(reg, tr)
		served := c.replicaShards(i)
		reg.GaugeVecFunc("sconrep_replica_table_lag",
			"Replication lag per table: the certifier's last committed version for the table minus this replica's applied version of it, over the tables of the shards the replica subscribes to.",
			"table", func() map[string]float64 {
				// Resolve the engine at scrape time: a disk restart
				// swaps it.
				lags := tableLag(c.cert.TableVersions(), r.Engine(), c.cert.ShardMap(), served)
				out := make(map[string]float64, len(lags))
				for t, lag := range lags {
					out[t] = float64(lag)
				}
				return out
			}, "replica", strconv.Itoa(i))
	}
	c.enableStoreObs(reg)
	c.balancer.EnableObs(reg)
}

// enableStoreObs registers the durable-storage instruments: per
// replica, the store's gauges, plus one recovery-time histogram fed by
// RestartReplica. No-op for in-memory clusters.
func (c *Cluster) enableStoreObs(reg *obs.Registry) {
	durable := false
	for i := range c.replicas {
		if c.Store(i) == nil {
			continue
		}
		durable = true
		storeGauges(reg, func() *pstore.Store { return c.Store(i) }, "replica", strconv.Itoa(i))
	}
	if durable {
		c.recoveryHist = reg.Histogram("sconrep_pstore_recovery_seconds",
			"Disk-restart recovery time: checkpoint restore plus WAL suffix replay, observed by RestartReplica.",
			nil)
	}
}

// EnableDTrace attaches a distributed tracer to every component: each
// session transaction mints a client.txn root span whose context rides
// the begin path through the load balancer (lb.route), the chosen
// replica (replica.txn and children), the certifier (certifier.certify,
// certifier.log_append), and the refresh fan-out (refresh.apply on
// every replica), so one transaction assembles into one causal span
// tree. Each logical node records into its own Collector ring of the
// given capacity — returned keyed "client", "gateway", "certifier",
// "replica-0"… — mirroring the per-process collectors of a
// multi-process deployment; serve them via obs.Options.Spans and
// stitch with sconrep-cli trace. Call after New, before traffic.
func (c *Cluster) EnableDTrace(capacity int) map[string]*dtrace.Collector {
	colls := make(map[string]*dtrace.Collector)
	mk := func(node string) *dtrace.Tracer {
		coll := dtrace.NewCollector(capacity)
		colls[node] = coll
		return dtrace.New(node, coll)
	}
	c.tracer = mk("client")
	c.balancer.EnableTracing(mk("gateway"))
	c.cert.EnableTracing(mk("certifier"))
	for i, r := range c.replicas {
		r.EnableTracing(mk(fmt.Sprintf("replica-%d", i)))
	}
	return colls
}

// clientSpan mints the client.txn root span for one transaction; nil
// (a no-op span) when tracing is off.
func (c *Cluster) clientSpan(txnName string) *dtrace.ActiveSpan {
	sp := c.tracer.StartRoot("client.txn")
	if txnName != "" {
		sp.SetAttr("txn", txnName)
	}
	return sp
}

// ObserveCommits installs fn as the cluster's commit observer: it is
// called once per committed transaction with the transaction's
// registered name (as passed to Begin), the tables it read, and the
// tables it wrote — the runtime ground truth against the static
// table-set dictionary the fine-grained mode routes on. The dynamic
// oracle tests use it to assert observed ⊆ declared for every TPC-W
// transaction. Call once, before serving traffic; fn must be safe for
// concurrent use.
func (c *Cluster) ObserveCommits(fn func(txnName string, readTables, writtenTables []string)) {
	c.commitObs = fn
}

// Mode returns the consistency configuration.
func (c *Cluster) Mode() core.Mode { return c.cfg.Mode }

// Collector returns the metrics collector.
func (c *Cluster) Collector() *metrics.Collector { return c.coll }

// Recorder returns the history recorder (nil unless RecordHistory).
func (c *Cluster) Recorder() *history.Recorder { return c.rec }

// Certifier exposes the certifier (tests, maintenance).
func (c *Cluster) Certifier() *certifier.Certifier { return c.cert }

// Replica returns replica i.
func (c *Cluster) Replica(i int) *replica.Replica { return c.replicas[i] }

// NumReplicas returns the configured replica count.
func (c *Cluster) NumReplicas() int { return len(c.replicas) }

// Balancer exposes the load balancer.
func (c *Cluster) Balancer() *lb.LoadBalancer { return c.balancer }

// Close stops the nodes in reverse construction order — each replica
// node detaches its replica, stopping its appliers, and closes its
// storage, the store a disk restart swapped in if there was one.
func (c *Cluster) Close() {
	if c.gateway != nil {
		c.gateway.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
	c.certNode.Close()
}

// VacuumAll reclaims storage on every replica and trims the
// certifier's history/index below the slowest replica's version.
// Safe to call while the cluster runs.
func (c *Cluster) VacuumAll() {
	min := uint64(^uint64(0))
	for _, r := range c.replicas {
		if v := r.Version(); v < min {
			min = v
		}
	}
	if min == ^uint64(0) || min == 0 {
		return
	}
	// Transactions may still be running at snapshots as low as min;
	// keep one extra version of slack.
	watermark := min - 1
	for _, r := range c.replicas {
		r.Engine().Vacuum(watermark)
	}
	c.cert.TrimBelow(watermark)
}

// Session is one client's connection to the gateway. A session issues
// transactions serially (closed loop).
type Session struct {
	c   *Cluster
	id  string
	lat *latency.Source

	// wc is the session's gateway connection. A transport failure makes
	// it unusable (its gateway-side version floor is gone), so
	// ensureClient reconnects under a fresh epoch — to the consistency
	// oracle the reconnect is a brand-new session, exactly the guarantee
	// a real client loses when its connection drops.
	wc    *wire.Client
	epoch int
}

// NewSession opens a session with a generated ID.
func (c *Cluster) NewSession() *Session {
	n := c.nextSess.Add(1)
	return c.SessionWithID(fmt.Sprintf("session-%d", n))
}

// SessionWithID opens a session with an explicit ID.
func (c *Cluster) SessionWithID(id string) *Session {
	seed := int64(len(id)) + c.nextSess.Add(1)*104729
	return &Session{c: c, id: id, lat: latency.NewSource(c.cfg.Latency, c.cfg.Seed^seed)}
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// effectiveID is the identifier the gateway (and the history oracle)
// sees: the base ID, suffixed with the reconnect epoch after the first
// transport failure.
func (s *Session) effectiveID() string {
	if s.epoch == 0 {
		return s.id
	}
	return fmt.Sprintf("%s#%d", s.id, s.epoch)
}

// ensureClient returns a usable gateway connection, dialing (or
// re-dialing under a new epoch) as needed.
func (s *Session) ensureClient() (*wire.Client, error) {
	if s.wc != nil && !s.wc.Broken() {
		return s.wc, nil
	}
	if s.wc != nil {
		s.wc.Close()
		s.wc = nil
		s.epoch++
	}
	n := s.c.ncfg
	wc, err := wire.Dial(s.c.gateway.Addr(), s.effectiveID(),
		wire.WithDialer(n.dialer(LinkClient)),
		wire.WithTimeouts(n.Timeouts))
	if err != nil {
		return nil, err
	}
	s.wc = wc
	return wc, nil
}

// Close ends the session: closing its gateway connection drops its
// accounting at the balancer.
func (s *Session) Close() {
	if s.wc != nil {
		s.wc.Close()
		s.wc = nil
	}
}

// Think blocks for an exponential think time with the given mean.
func (s *Session) Think(mean time.Duration) { s.lat.Think(mean) }

// Tx is one client transaction in flight. Begin sends nothing: the
// begin header (name or tables, and the root span) rides on the
// transaction's first request, and until that request is answered wc
// is nil. After it: the gateway connection the transaction runs on, its
// begin snapshot, and the session epoch ID it was begun under.
type Tx struct {
	s      *Session
	submit time.Time
	name   string
	tables []string
	done   bool
	wc     *wire.Client
	snap   uint64
	sessID string

	// span is the client.txn root span (nil when tracing is off).
	span *dtrace.ActiveSpan
}

// Trace returns the transaction's trace ID (zero when tracing is off).
func (t *Tx) Trace() dtrace.TraceID { return t.span.Context().Trace }

// endSpan closes the root span with its outcome; End is idempotent, so
// the first terminal event wins.
func (t *Tx) endSpan(outcome string, version uint64, err error) {
	if t.span == nil {
		return
	}
	t.span.SetAttr("outcome", outcome)
	if version != 0 {
		t.span.SetAttr("version", strconv.FormatUint(version, 10))
	}
	if err != nil {
		t.span.SetAttr("error", err.Error())
	}
	t.span.End()
}

// Begin starts a transaction named txnName (the identifier the
// fine-grained mode resolves to a table-set; any string — including ""
// — works under the other modes). It sends nothing and never fails: see
// begin.
func (s *Session) Begin(txnName string) (*Tx, error) { return s.begin(txnName, nil), nil }

// BeginTables starts a transaction tagged with an explicit table-set
// (the paper's footnote-1 alternative to registered transaction names).
func (s *Session) BeginTables(tables []string) (*Tx, error) { return s.begin("", tables), nil }

// begin starts a transaction routed by name or, when tables is
// non-empty, by table-set, without sending anything: the gateway routes
// it and the replica applies the start rule when its first request
// arrives, so routing and gate errors surface from there, and Submit —
// the moment the oracle holds the start rule to — is still now.
func (s *Session) begin(txnName string, tables []string) *Tx {
	return &Tx{s: s, submit: time.Now(), name: txnName, tables: tables, span: s.c.clientSpan(txnName)}
}

// first sends the transaction's first request, the one that carries its
// begin header. A failed header request leaves nothing behind (the
// gateway aborts on connection death), so unless it carried the commit
// a transport failure is retried once on a fresh connection. Any other
// failure is terminal: no transaction was started.
func (t *Tx) first(commit bool, do func(*wire.Client) error) error {
	for attempt := 0; ; attempt++ {
		wc, err := t.s.ensureClient()
		if err == nil {
			wc.Start(t.name, t.tables, t.span.Context())
			if err = do(wc); err == nil {
				t.wc, t.snap, t.sessID = wc, wc.Snapshot(), t.s.effectiveID()
				return nil
			}
			if wc.Broken() && attempt == 0 && !commit {
				continue
			}
		}
		t.abandon(err)
		return err
	}
}

// abandon ends a transaction that err has already finished.
func (t *Tx) abandon(err error) {
	if !t.done {
		t.done = true
		t.endSpan("error", 0, err)
		t.s.c.coll.RecordAbort()
	}
}

// Exec runs one prepared statement (one client round trip).
func (t *Tx) Exec(p *sql.Prepared, params ...any) (*sql.Result, error) {
	return t.ExecSQL(p.SQL, params...)
}

// ExecSQL runs one ad-hoc statement (one client round trip); the
// replica parses each distinct text once.
func (t *Tx) ExecSQL(src string, params ...any) (*sql.Result, error) {
	if t.done {
		return nil, replica.ErrTxnDone
	}
	var res *sql.Result
	exec := func(wc *wire.Client) (err error) {
		res, err = wc.Exec(src, params...)
		return err
	}
	if t.wc == nil {
		err := t.first(false, exec)
		return res, err
	}
	if err := exec(t.wc); err != nil {
		t.failed(err)
		return nil, err
	}
	return res, nil
}

// failed ends the transaction on a statement error that already ended
// it at the replica — an early-certification kill, which arrives as
// ErrCertifyConflict (the one conflict code), or a crash — and on a
// broken connection, which leaves it nowhere to go on.
func (t *Tx) failed(err error) {
	if errors.Is(err, replica.ErrCertifyConflict) || errors.Is(err, replica.ErrCrashed) || t.wc.Broken() {
		t.abandon(err)
	}
}

// Abort discards the transaction.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.endSpan("abort", 0, nil)
	t.s.c.coll.RecordAbort()
	// A transaction that sent no request has nothing to abort anywhere.
	if t.wc != nil && !t.wc.Broken() {
		_ = t.wc.Abort()
	}
}

// Commit finishes the transaction through the consistency mode's commit
// path and records the observation for metrics and the history oracle.
// An event is only recorded when the acknowledgment actually reached
// this client: a commit whose ack was lost to a fault may well have
// happened, but the client observed nothing, so the oracle has nothing
// to hold it to.
func (t *Tx) Commit() (replica.CommitResult, error) {
	if t.done {
		return replica.CommitResult{}, replica.ErrTxnDone
	}
	var info wire.CommitInfo
	commit := func(wc *wire.Client) (err error) {
		info, err = wc.CommitEx()
		return err
	}
	var err error
	if t.wc == nil {
		// No statement ran: the header rides on the commit itself.
		err = t.first(true, commit)
	} else if err = commit(t.wc); err != nil {
		t.abandon(err)
	}
	t.done = true
	if err != nil {
		return replica.CommitResult{}, err
	}
	t.endSpan("commit", info.Version, nil)
	acked := time.Now()
	t.s.c.coll.RecordCommit(!info.ReadOnly, acked.Sub(t.submit))
	if obs := t.s.c.commitObs; obs != nil {
		obs(t.name, info.ReadTables, info.WriteTables)
	}
	if rec := t.s.c.rec; rec != nil {
		rec.Record(history.Event{
			TxnID:       t.s.c.nextTxn.Add(1),
			Session:     t.sessID,
			ReadOnly:    info.ReadOnly,
			Submit:      t.submit,
			Acked:       acked,
			Snapshot:    info.Snapshot,
			Commit:      info.Version,
			WriteTables: info.WriteTables,
			ReadTables:  info.ReadTables,
		})
	}
	return replica.CommitResult{
		Version:       info.Version,
		ReadOnly:      info.ReadOnly,
		WrittenTables: info.WriteTables,
	}, nil
}

// Snapshot returns the version the transaction reads: 0 until its first
// request has been answered.
func (t *Tx) Snapshot() uint64 { return t.snap }
