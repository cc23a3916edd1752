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
	"sync"
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
	// WAL, when non-nil, backs the certifier's decision log; nil
	// discards every decision record (nothing is retained).
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
	// and the gateway routes transactions only to replicas covering
	// their table-set's shards. Must have one entry per replica when
	// set, every ID in [0, Shards) — [0, 1) on an unsharded cluster.
	ReplicaShards [][]int
}

// Cluster is a running replicated database: its nodes, and the client
// side of the sessions that talk to its gateway.
type Cluster struct {
	cfg  Config
	ncfg NetConfig
	// The nodes: the certifier, the replicas (proxy + DBMS), the gateway
	// (the load balancer).
	certNode *CertifierNode
	nodes    []*ReplicaNode
	gateway  *GatewayNode
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

	// loadFn is the LoadData bootstrap, kept so a disk restart can
	// rebuild an empty data directory; it refuses a load that ends
	// anywhere but LoadData's version. Set before traffic.
	loadFn func(e *storage.Engine) error
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
		if id, ok := smap.Lacks(served); ok {
			return CertifierConfig{}, fmt.Errorf("cluster: ReplicaShards[%d] names shard %d, want [0,%d)", i, id, smap.N())
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

// New builds and starts a cluster on loopback with the default wire
// configuration: NewNetworked(cfg, NetConfig{}).
func New(cfg Config) (*Cluster, error) { return NewNetworked(cfg, NetConfig{}) }

// finished is every replica's OnFinish hook. A committed transaction's
// timeline feeds Figure 4's stage means and the sync-delay series — the
// global stage under ESC, the version stage under the lazy modes.
func (c *Cluster) finished(tl metrics.Timeline, committed, readOnly bool) {
	if !committed {
		return
	}
	syncDelay := tl.Stage(metrics.StageVersion)
	if c.cfg.Mode == core.Eager {
		syncDelay = tl.Stage(metrics.StageGlobal)
	}
	c.coll.RecordTimeline(tl, !readOnly, syncDelay)
}

// buildReplica builds one replica's engine from replica 0's image
// (storage.Engine.Build); a variable so a test can hold the builds at a
// barrier.
var buildReplica = (*storage.Engine).Build

// LoadData bootstraps every replica with identical initial data, then
// aligns the certifier's version counter with the replicas. load runs
// once, on replica 0's engine; replicas 1…n−1 are then built
// concurrently from replica 0's committed state (storage.Txn.Image at
// the loaded version, storage.Engine.Build), sharing its row images. A
// load error names replica 0, a build error its target replica.
//
// load must be deterministic: a durable replica restarted on a data
// directory with no checkpoint runs it again (RestartReplica), and the
// certifier backfills that replica from the version the first run
// reached. A rerun that ends at any other version fails the restart.
func (c *Cluster) LoadData(load func(e *storage.Engine) error) error {
	if c.loaded {
		return errors.New("cluster: LoadData called twice")
	}
	src := c.nodes[0].Replica.Engine()
	if err := load(src); err != nil {
		return fmt.Errorf("cluster: loading replica 0: %w", err)
	}
	v0 := src.Version()
	snap, err := src.BeginAt(v0)
	if err != nil {
		return fmt.Errorf("cluster: reading replica 0: %w", err)
	}
	img, err := snap.Image()
	snap.Abort()
	if err != nil {
		return fmt.Errorf("cluster: reading replica 0: %w", err)
	}
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i+1] = buildReplica(n.Replica.Engine(), v0, img)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: building replica %d: %w", i, err)
		}
	}
	if err := c.Certifier().StartAt(v0); err != nil {
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
	c.loadFn = func(e *storage.Engine) error {
		if err := load(e); err != nil {
			return err
		}
		if v := e.Version(); v != v0 {
			return fmt.Errorf("cluster: non-deterministic load: the loader reached version %d, LoadData's reached %d", v, v0)
		}
		return nil
	}
	c.loaded = true
	return nil
}

// KillReplica simulates kill -9 on replica i (ReplicaNode.Kill).
func (c *Cluster) KillReplica(i int) { c.nodes[i].Kill() }

// RestartReplica brings killed replica i back (ReplicaNode.Restart); a
// durable one re-runs the LoadData function when its directory holds no
// checkpoint, and refuses to come back if that run ends at a version
// other than LoadData's.
func (c *Cluster) RestartReplica(i int) error { return c.nodes[i].Restart(c.loadFn) }

// ExecSchemaAll applies a DDL statement (CREATE TABLE / CREATE INDEX)
// to every replica's engine. Schema changes are not replicated through
// the commit protocol and bump no versions.
func (c *Cluster) ExecSchemaAll(q string) error {
	for i, n := range c.nodes {
		e := n.Replica.Engine()
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
	c.Balancer().RegisterTxn(name, tables)
}

// EnableObs attaches every node to one live metrics registry through
// the node's own EnableObs — the call sconrepd makes for each process —
// and, when tr is non-nil, records every replica's per-transaction
// timelines into tr. It returns what each node's observability endpoint
// serves, keyed like EnableDTrace's collectors ("certifier", "gateway",
// "replica-0"…; there is no "client" node to observe). Call after New
// and before serving traffic; a nil registry is a no-op, leaving the
// hot paths with their zero-cost nil guards.
func (c *Cluster) EnableObs(reg *obs.Registry, tr *obs.TraceRecorder) map[string]obs.Options {
	if reg == nil {
		return nil
	}
	opts := map[string]obs.Options{
		c.certNode.name(): c.certNode.EnableObs(reg),
		c.gateway.name():  c.gateway.EnableObs(reg),
	}
	for _, n := range c.nodes {
		opts[n.name()] = n.EnableObs(reg, tr)
	}
	return opts
}

// EnableDTrace attaches a distributed tracer to every node: each
// session transaction mints a client.txn root span whose context rides
// the begin path through the load balancer (lb.route), the chosen
// replica (replica.txn and children), the certifier (certifier.certify,
// certifier.log_append), and the refresh fan-out (refresh.apply on
// every replica), so one transaction assembles into one causal span
// tree. Each node records into its own Collector ring of the given
// capacity, attached by the node's EnableTracing as in a multi-process
// deployment; the collectors are returned keyed "client", "gateway",
// "certifier", "replica-0"…. Serve them via obs.Options.Spans and stitch
// with sconrep-cli trace. Call after New, before traffic.
func (c *Cluster) EnableDTrace(capacity int) map[string]*dtrace.Collector {
	colls := map[string]*dtrace.Collector{
		"client":          dtrace.NewCollector(capacity),
		c.certNode.name(): c.certNode.EnableTracing(capacity),
		c.gateway.name():  c.gateway.EnableTracing(capacity),
	}
	c.tracer = dtrace.New("client", colls["client"])
	for _, n := range c.nodes {
		colls[n.name()] = n.EnableTracing(capacity)
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
func (c *Cluster) Certifier() *certifier.Certifier { return c.certNode.Cert }

// Replica returns replica i.
func (c *Cluster) Replica(i int) *replica.Replica { return c.nodes[i].Replica }

// NumReplicas returns the configured replica count.
func (c *Cluster) NumReplicas() int { return len(c.nodes) }

// Balancer exposes the load balancer.
func (c *Cluster) Balancer() *lb.LoadBalancer { return c.gateway.Balancer() }

// FlushEnds delivers at once the ends the gateway holds for its next
// request to each replica (wire.Gateway.FlushEnds): transactions the
// sessions have finished stop counting in the replicas' Active.
func (c *Cluster) FlushEnds() { c.gateway.FlushEnds() }

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

// VacuumAll trims the certifier's history and conflict index at the
// lowest of the replicas' horizons (storage.Engine.Horizon). Each
// replica collects its own row versions as it installs; no replica
// holds a transaction, or a checkpoint scan, at a snapshot below its
// horizon, so none will certify one below the trim. Safe to call while
// the cluster runs.
func (c *Cluster) VacuumAll() {
	low := uint64(^uint64(0))
	for _, n := range c.nodes {
		low = min(low, n.Replica.Engine().Horizon())
	}
	if low == ^uint64(0) {
		return
	}
	c.Certifier().TrimBelow(low)
}

// Session is one client's connection to the gateway. A session issues
// transactions serially (closed loop).
type Session struct {
	c   *Cluster
	id  string
	lat *latency.Source

	// wc is the session's gateway connection. A transport failure makes
	// it unusable, so ensureClient reconnects under the same ID, and the
	// new connection takes the session's floor from the broken one: the
	// session keeps its guarantees across the reconnect.
	wc *wire.Client
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

// ensureClient returns a usable gateway connection, dialing (or
// re-dialing) as needed.
func (s *Session) ensureClient() (*wire.Client, error) {
	if s.wc != nil && !s.wc.Broken() {
		return s.wc, nil
	}
	n := s.c.ncfg
	wc, err := wire.Dial(s.c.gateway.Addr(), s.id,
		wire.WithDialer(n.dialer(LinkClient)),
		wire.WithTimeouts(n.Timeouts))
	if err != nil {
		return nil, err
	}
	if s.wc != nil {
		s.wc.Close()
		wc.Resume(s.wc)
	}
	s.wc = wc
	return wc, nil
}

// Close ends the session and closes its gateway connection.
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
// is nil. After it: the gateway connection the transaction runs on and
// its begin snapshot.
type Tx struct {
	s      *Session
	submit time.Time
	name   string
	tables []string
	done   bool
	wc     *wire.Client
	snap   uint64

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
				t.wc, t.snap = wc, wc.Snapshot()
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
			Session:     t.s.id,
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
