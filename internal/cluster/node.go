package cluster

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/latency"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/pstore"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
	"sconrep/internal/storage"
	"sconrep/internal/wal"
	"sconrep/internal/wire"
)

// This file is the composition root: the one place a certifier, a
// replica (proxy + DBMS) or a gateway — the three kinds of node in the
// paper's Figure 2 — is wired to the network. NewNetworked starts all
// three on loopback in one process; cmd/sconrepd fills the same config
// structs from flags and starts one per process. The topology the
// tests and the benchmark run is therefore sconrepd's by construction.

// options are the wire options every endpoint of a node is given.
func (n NetConfig) options(extra ...wire.Option) []wire.Option {
	return append([]wire.Option{wire.WithTimeouts(n.Timeouts), wire.WithBackoff(n.Backoff)}, extra...)
}

// CertifierConfig describes a certifier node.
type CertifierConfig struct {
	// Listen is the address to serve on.
	Listen string
	// Shards is the deployment's table→shard map, one sequencer per
	// shard; nil is the one-shard map. Replicas and the gateway learn it.
	Shards *shard.Map
	// Eager enables global-commit tracking, which the eager mode needs.
	Eager bool
	// WALPath names the decision log's file; WAL, used when WALPath is
	// empty, is an already open log. With neither, decisions are encoded
	// and appended as usual but discarded: nothing is kept.
	WALPath string
	WAL     *wal.Log
	// Latency is the simulated cost source; nil injects no delays.
	Latency *latency.Source
	// Net configures the wire layer; a certifier reads Timeouts, Backoff
	// and SubLease.
	Net NetConfig
}

// openCertifier builds cfg's certifier. On a WALPath, prior decisions
// are recovered in one replay and new ones append to the same file. A
// crash can leave a torn final frame; the replay reports the valid
// prefix and the file is truncated to it, so the log appends cleanly
// instead of burying new records behind garbage. A replay error returns
// before the file is touched. The file is returned open for the caller
// to close; opened is nil when the log is cfg.WAL or discarded.
func openCertifier(cfg CertifierConfig) (_ *certifier.Certifier, opened *wal.Log, err error) {
	opts := []certifier.Option{certifier.WithShards(cfg.Shards), certifier.WithLatency(cfg.Latency)}
	if cfg.Eager {
		opts = append(opts, certifier.WithEager())
	}
	if cfg.WALPath == "" {
		l := cfg.WAL
		if l == nil {
			l = wal.NewWriter(io.Discard)
		}
		return certifier.New(append(opts, certifier.WithWAL(l))...), nil, nil
	}
	// Append mode: opening writes nothing until the first decision.
	l, err := wal.Open(cfg.WALPath)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			l.Close()
		}
	}()
	cert := certifier.New(append(opts, certifier.WithWAL(l))...)
	var valid int64
	err = cert.RestoreFromWAL(func(fn func(*wal.Record) error) error {
		var err error
		valid, err = wal.ReplayFileN(cfg.WALPath, fn)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wal replay: %w", err)
	}
	fi, err := os.Stat(cfg.WALPath)
	if err != nil {
		return nil, nil, err
	}
	if fi.Size() > valid {
		log.Printf("wal: discarding torn tail (%d of %d bytes valid)", valid, fi.Size())
		if err := os.Truncate(cfg.WALPath, valid); err != nil {
			return nil, nil, fmt.Errorf("wal truncate: %w", err)
		}
	}
	return cert, l, nil
}

// CertifierNode is a running certifier. Closing it stops serving,
// leaves subscriptions to their leases, and closes the decision-log
// file it opened on a WALPath (a CertifierConfig.WAL stays the
// caller's), so a successor on that file is its only writer.
type CertifierNode struct {
	*wire.CertServer
	Cert *certifier.Certifier
	log  *wal.Log // opened on CertifierConfig.WALPath, or nil
}

// StartCertifier builds cfg's certifier and serves it.
func StartCertifier(cfg CertifierConfig) (*CertifierNode, error) {
	cert, opened, err := openCertifier(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := wire.ServeCertifier(cert, cfg.Listen, cfg.Net.options(wire.WithSubLease(cfg.Net.SubLease))...)
	if err != nil {
		if opened != nil {
			opened.Close()
		}
		return nil, err
	}
	return &CertifierNode{CertServer: srv, Cert: cert, log: opened}, nil
}

// Close stops the server, then closes the log file the node opened.
func (n *CertifierNode) Close() error {
	err := n.CertServer.Close()
	if n.log != nil {
		err = errors.Join(err, n.log.Close())
	}
	return err
}

// name is the node's name in traces and in the cluster's per-node maps.
func (n *CertifierNode) name() string { return "certifier" }

// EnableObs attaches the node to reg and returns what its
// observability endpoint serves. Call before traffic.
func (n *CertifierNode) EnableObs(reg *obs.Registry) obs.Options {
	n.Cert.EnableObs(reg)
	n.CertServer.EnableObs(reg)
	return obs.Options{Registry: reg, Health: n.Health}
}

// EnableTracing attaches the node's tracer, recording into a new span
// collector of the given capacity, and returns the collector. Call
// before traffic.
func (n *CertifierNode) EnableTracing(capacity int) *dtrace.Collector {
	return attachTracer(n.name(), capacity, n.Cert.EnableTracing)
}

// attachTracer hands attach a tracer named name over a new span
// collector of the given capacity, and returns the collector.
func attachTracer(name string, capacity int, attach func(*dtrace.Tracer)) *dtrace.Collector {
	spans := dtrace.NewCollector(capacity)
	attach(dtrace.New(name, spans))
	return spans
}

// Health reports the certifier ready while it serves.
func (n *CertifierNode) Health() obs.Health {
	return obs.Health{Ready: true, Role: "certifier", Detail: map[string]any{
		"version":  n.Cert.Version(),
		"replicas": len(n.Cert.Replicas()),
	}}
}

// openBackend opens a replica's storage: a persistent store under dir
// — the newest verifying fuzzy checkpoint plus the contiguous WAL
// suffix, boot re-run on a directory that holds no checkpoint — or, for
// an empty dir, a fresh in-memory engine that boot fills. A nil boot
// leaves the loading to the caller. Whatever a disk is missing, the
// certifier backfills on resubscription.
func openBackend(dir string, checkpointEvery uint64, boot func(*storage.Engine) error) (storage.Backend, error) {
	if dir != "" {
		return pstore.Open(dir, pstore.Options{CheckpointEvery: checkpointEvery, Bootstrap: boot})
	}
	eng := storage.NewEngine()
	if boot != nil {
		if err := boot(eng); err != nil {
			return nil, err
		}
	}
	return storage.MemBackend{Eng: eng}, nil
}

// ReplicaConfig describes a replica node: a proxy and its DBMS.
type ReplicaConfig struct {
	// Replica configures the proxy: ID, early certification, cost model.
	Replica replica.Config
	// Listen is the address to serve the gateway on, Certifier the
	// certifier node's.
	Listen    string
	Certifier string
	// DataDir, when non-empty, makes the replica durable; CheckpointEvery
	// is Config.CheckpointEvery.
	DataDir         string
	CheckpointEvery uint64
	// Bootstrap loads the initial database; it must be deterministic and
	// the same on every replica, and it may run while other replicas run
	// theirs, so it shares no mutable state between calls. Nil leaves an
	// empty engine for the caller to load before traffic.
	Bootstrap func(*storage.Engine) error
	// ServeShards is this replica's partial refresh subscription (nil =
	// all shards): versions certified elsewhere arrive as skip markers.
	// One the certifier's map lacks is refused.
	ServeShards []int
	// MaxLag is the worst per-table lag, in versions, at which Health
	// still reports the replica ready.
	MaxLag uint64
	// Net configures the wire layer; a replica reads Timeouts, Backoff
	// and DialerFor(CertLink(ID)). Its serve grace comes from the lease
	// the certifier sends, and a lease Timeouts.Idle leaves no room for
	// is refused: the replica logs it and never serves.
	Net NetConfig
}

// ReplicaNode is a running replica.
type ReplicaNode struct {
	*wire.ReplicaServer
	Replica *replica.Replica
	cfg     ReplicaConfig
	cc      *wire.CertClient

	// mu guards the backend slot: Restart swaps it while observability
	// scrapes read it.
	mu sync.Mutex
	// backend is the replica's storage, the one Close closes.
	// guarded by mu
	backend storage.Backend
	// recovery observes the recovery time of each store Restart opens;
	// nil until EnableObs.
	recovery atomic.Pointer[obs.Histogram]
}

// StartReplica opens cfg's storage, subscribes the replica to the
// certifier and serves it.
func StartReplica(cfg ReplicaConfig) (*ReplicaNode, error) {
	backend, err := openBackend(cfg.DataDir, cfg.CheckpointEvery, cfg.Bootstrap)
	if err != nil {
		return nil, err
	}
	n := &ReplicaNode{cfg: cfg, backend: backend}
	// The certifier client's Vlocal callback must track the live engine:
	// a disk restart (RecoverFrom) swaps it, and a resubscription
	// reporting the dead engine's version would make the certifier
	// backfill the wrong suffix. The replica does not exist yet when we
	// dial, so route through a slot filled right after construction.
	var rslot atomic.Pointer[replica.Replica]
	eng := backend.Engine()
	vlocal := func() uint64 {
		if r := rslot.Load(); r != nil {
			return r.Version()
		}
		return eng.Version()
	}
	n.cc = wire.DialCertifier(cfg.Certifier, cfg.Replica.ID, eng.Version(), cfg.Net.options(
		wire.WithDialer(cfg.Net.dialer(CertLink(cfg.Replica.ID))), wire.WithVLocal(vlocal), wire.WithShards(cfg.ServeShards))...)
	n.Replica = replica.NewWithBackend(cfg.Replica, backend, n.cc)
	rslot.Store(n.Replica)
	// Serve gate: while the refresh stream has been dead longer than the
	// grace (or the replica is still catching up to the version floor it
	// saw at resubscribe, or has not had a subAck yet), requests carrying
	// a begin header fail with ErrUnavailable and the gateway routes
	// elsewhere — a partitioned replica must not serve possibly stale
	// strong reads. Status answers report the client's shards and map.
	if n.ReplicaServer, err = wire.ServeReplica(n.Replica, cfg.Listen, cfg.Net.options(wire.WithCertClient(n.cc))...); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// Store returns the node's persistent backend, nil for an in-memory
// replica. The store is live: Kill abandons it and Restart replaces it.
func (n *ReplicaNode) Store() *pstore.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, _ := n.backend.(*pstore.Store)
	return st
}

// Kill simulates kill -9: the replica detaches and a persistent store
// is abandoned mid-flight — in-flight checkpoints abort leaving .tmp
// files, the unforced WAL tail may be lost. An in-memory replica just
// crashes.
func (n *ReplicaNode) Kill() {
	n.Replica.Crash()
	if st := n.Store(); st != nil {
		st.Abandon()
	}
}

// Restart brings a killed replica back. An in-memory one recovers from
// the certifier's history. A durable one takes the disk-restart path:
// its data directory is reopened (newest verifying checkpoint plus the
// contiguous WAL suffix, boot re-run on a directory that holds no
// checkpoint), the recovered store replaces the abandoned one, and the
// replica resubscribes from the recovered Vlocal, so the certifier
// backfills only the missing history suffix.
func (n *ReplicaNode) Restart(boot func(*storage.Engine) error) error {
	if n.Store() == nil {
		return n.Replica.Recover()
	}
	backend, err := openBackend(n.cfg.DataDir, n.cfg.CheckpointEvery, boot)
	if err != nil {
		return err
	}
	st := backend.(*pstore.Store)
	n.mu.Lock()
	n.backend = backend
	n.mu.Unlock()
	n.recovery.Load().Observe(st.Stats().RecoveryTook)
	if err := n.Replica.RecoverFrom(backend); err != nil {
		st.Abandon()
		return err
	}
	return nil
}

// name is the node's name in traces and in the cluster's per-node maps.
func (n *ReplicaNode) name() string { return fmt.Sprintf("replica-%d", n.cfg.Replica.ID) }

// EnableObs attaches the node to reg and returns what its
// observability endpoint serves; tr, when non-nil, receives the
// replica's per-transaction timelines. Every series is labelled with
// the replica's ID: the replica's instruments, its server's request
// counter, the per-table lag Health reports and, on a durable replica,
// the store's gauges — read from the live store at scrape time — and
// the recovery time of every store opened, this one included. Call
// before traffic.
func (n *ReplicaNode) EnableObs(reg *obs.Registry, tr *obs.TraceRecorder) obs.Options {
	id := strconv.Itoa(n.cfg.Replica.ID)
	n.Replica.EnableObs(reg, tr)
	n.ReplicaServer.EnableObs(reg, "replica", id)
	// The gauge's first reading, taken off the caller's path, so that
	// scraping a replica that stays idle never asks the certifier — not
	// even at the first scrape, which a measurement window may open with.
	go n.cc.TableVersions()
	reg.GaugeVecFunc("sconrep_replica_table_lag",
		"Replication lag per table: the certifier's last committed version for the table minus this replica's applied version of it, over the tables of the shards the replica subscribes to.",
		"table", func() map[string]float64 {
			// A scrape of an idle replica reuses the last reading; Health
			// always asks the certifier.
			certTV, err := n.cc.RecentTableVersions()
			if err != nil {
				return nil // unreachable certifier: no series; Health reports it
			}
			return n.tableLag(certTV)
		}, "replica", id)
	if st := n.Store(); st != nil {
		storeGauges(reg, n.Store, "replica", id)
		recovery := reg.Histogram("sconrep_pstore_recovery_seconds",
			"Recovery time of each store this replica opened: checkpoint restore plus WAL suffix replay, at startup and at every disk restart.",
			nil, "replica", id)
		recovery.Observe(st.Stats().RecoveryTook)
		n.recovery.Store(recovery)
	}
	return obs.Options{Registry: reg, Traces: tr, Health: n.Health}
}

// EnableTracing attaches the replica's tracer (see
// CertifierNode.EnableTracing).
func (n *ReplicaNode) EnableTracing(capacity int) *dtrace.Collector {
	return attachTracer(n.name(), capacity, n.Replica.EnableTracing)
}

// storeGauges registers the durable-storage gauges of one replica: the
// checkpoint's version, age and write duration, and the live WAL
// footprint. store is asked at scrape time (a disk restart replaces the
// store) and may answer nil.
func storeGauges(reg *obs.Registry, store func() *pstore.Store, labelPairs ...string) {
	gauge := func(name, help string, read func(pstore.Stats) float64) {
		reg.GaugeFunc(name, help, func() float64 {
			st := store()
			if st == nil {
				return 0
			}
			return read(st.Stats())
		}, labelPairs...)
	}
	gauge("sconrep_pstore_checkpoint_version",
		"Version the last durable fuzzy checkpoint captured.",
		func(s pstore.Stats) float64 { return float64(s.CheckpointVersion) })
	gauge("sconrep_pstore_checkpoint_age_seconds",
		"Seconds since this replica's last durable fuzzy checkpoint (0 before the first).",
		func(s pstore.Stats) float64 {
			if s.LastCheckpointAt.IsZero() {
				return 0
			}
			return time.Since(s.LastCheckpointAt).Seconds()
		})
	gauge("sconrep_pstore_checkpoint_seconds",
		"Duration of this replica's last fuzzy checkpoint write.",
		func(s pstore.Stats) float64 { return s.LastCheckpointTook.Seconds() })
	gauge("sconrep_pstore_wal_bytes",
		"Live WAL footprint: bytes across this replica's retained log segments.",
		func(s pstore.Stats) float64 { return float64(s.WALBytes) })
}

// tableLag is the replica's replication lag per table: the certifier's
// last committed version of each table (certTV, read over the
// certifier link) minus the live engine's applied version of it. Tables
// on shards outside a partial subscription, by the certifier's map, are
// left out (all of them before the map arrives): the replica
// deliberately never applies their data, so their lag is meaningless
// and would grow without bound.
func (n *ReplicaNode) tableLag(certTV map[string]uint64) map[string]float64 {
	smap, served := n.cc.ShardMap(), n.cfg.ServeShards
	names := make([]string, 0, len(certTV))
	for t := range certTV {
		if served == nil || smap != nil && shard.Covers(served, []int{smap.Of(t)}) {
			names = append(names, t)
		}
	}
	eng := n.Replica.Engine()
	engTV := eng.TableVersionsAt(names, eng.Version())
	lags := make(map[string]float64, len(names))
	for i, t := range names {
		lags[t] = 0
		if cv, lv := certTV[t], engTV[i]; cv > lv {
			lags[t] = float64(cv - lv)
		}
	}
	return lags
}

// Health reports readiness as replication lag, measured per table: the
// worst table governs — a scalar version delta over-reports lag when
// the missing versions only touch tables this replica already has
// current (e.g. after a refresh batch applied out of a larger backlog).
// A crashed replica, one whose serve gate is closed, or one whose worst
// table lags more than MaxLag versions is unready.
func (n *ReplicaNode) Health() obs.Health {
	rep := n.Replica
	serving := n.cc.Serving()
	detail := map[string]any{"replica": rep.ID(), "vlocal": rep.Version(), "crashed": rep.Crashed(), "serving": serving}
	ready := !rep.Crashed() && serving
	if certTV, err := n.cc.TableVersions(); err != nil {
		detail["certifier_error"] = err.Error()
		ready = false
	} else {
		lags := n.tableLag(certTV)
		var worst float64
		for _, lag := range lags {
			worst = max(worst, lag)
		}
		detail["table_lag"] = lags
		detail["lag"] = worst
		if worst > float64(n.cfg.MaxLag) {
			ready = false
		}
	}
	return obs.Health{Ready: ready, Role: "replica", Detail: detail}
}

// Close stops serving, detaches the replica from the certifier and
// closes its storage.
func (n *ReplicaNode) Close() error {
	if n.ReplicaServer != nil {
		n.ReplicaServer.Close()
	}
	n.Replica.Crash()
	n.cc.Close()
	n.mu.Lock()
	backend := n.backend
	n.mu.Unlock()
	return backend.Close()
}

// GatewayConfig describes a gateway node: the load balancer.
type GatewayConfig struct {
	// Listen is the address to serve clients on.
	Listen string
	// Mode is the consistency configuration.
	Mode core.Mode
	// Replicas lists the replica nodes' addresses; a replica's index
	// here is its ID to the balancer, which routes by the shards and
	// shard map each replica's status answers report.
	Replicas []string
	// Net configures the wire layer; a gateway reads Timeouts, Backoff
	// and, for replica i, DialerFor(ReplicaLink(i)).
	Net NetConfig
}

// GatewayNode is a running gateway.
type GatewayNode struct {
	*wire.Gateway
	cfg GatewayConfig
}

// StartGateway serves cfg's gateway once it has probed every replica.
func StartGateway(cfg GatewayConfig) (*GatewayNode, error) {
	linkOf := make(map[string]string, len(cfg.Replicas))
	for i, addr := range cfg.Replicas {
		linkOf[addr] = ReplicaLink(i)
	}
	dialerFor := func(addr string) wire.Dialer { return cfg.Net.dialer(linkOf[addr]) }
	gw, err := wire.ServeGateway(cfg.Listen, cfg.Mode, cfg.Replicas, cfg.Net.options(wire.WithDialerFunc(dialerFor))...)
	if err != nil {
		return nil, err
	}
	return &GatewayNode{Gateway: gw, cfg: cfg}, nil
}

// name is the node's name in traces and in the cluster's per-node maps.
func (n *GatewayNode) name() string { return "gateway" }

// EnableObs attaches the node to reg and returns what its
// observability endpoint serves. Call before traffic.
func (n *GatewayNode) EnableObs(reg *obs.Registry) obs.Options {
	n.Gateway.EnableObs(reg)
	return obs.Options{Registry: reg, Health: n.Health}
}

// EnableTracing attaches the balancer's tracer (see
// CertifierNode.EnableTracing).
func (n *GatewayNode) EnableTracing(capacity int) *dtrace.Collector {
	return attachTracer(n.name(), capacity, n.Balancer().EnableTracing)
}

// Health reports the gateway ready while it has at least one live
// replica to route to.
func (n *GatewayNode) Health() obs.Health {
	live := n.Balancer().LiveReplicas()
	return obs.Health{Ready: live > 0, Role: "gateway", Detail: map[string]any{
		"mode":          n.cfg.Mode.String(),
		"live_replicas": live,
		"replicas":      len(n.cfg.Replicas),
	}}
}
