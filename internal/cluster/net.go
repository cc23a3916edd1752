package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"sconrep/internal/latency"
	"sconrep/internal/pstore"
	"sconrep/internal/replica"
	"sconrep/internal/storage"
	"sconrep/internal/wire"
)

// Link labels for the networked topology; the fault injector keys its
// dialers and partitions on these.
const (
	// LinkClient is every client ⇄ gateway connection.
	LinkClient = "client"
)

// CertLink labels replica i's certifier link (requests and the refresh
// stream).
func CertLink(i int) string { return fmt.Sprintf("cert/%d", i) }

// ReplicaLink labels the gateway's link to replica i.
func ReplicaLink(i int) string { return fmt.Sprintf("replica/%d", i) }

// NetConfig configures the networked (real TCP) deployment of a
// cluster: per-link dialers for fault injection and the wire layer's
// hardening knobs.
type NetConfig struct {
	// DialerFor returns the dialer for a link label (LinkClient,
	// CertLink(i), ReplicaLink(i)); nil — or a nil return — means
	// net.Dial. The fault injector's Injector.Dialer plugs in here.
	DialerFor func(link string) wire.Dialer
	// Timeouts bounds certifier- and replica-link I/O.
	Timeouts wire.Timeouts
	// ClientTimeouts bounds client ⇄ gateway I/O; zero means Timeouts.
	ClientTimeouts wire.Timeouts
	// Backoff is the reconnect/retry schedule for all links.
	Backoff wire.Backoff
	// StreamGrace is how long a replica keeps serving after its refresh
	// stream drops before its gate closes. It must stay comfortably
	// below SubLease: the replica must stop serving before the
	// certifier stops waiting for it. Zero means 500ms.
	StreamGrace time.Duration
	// SubLease is the certifier-side subscription lease (see
	// wire.WithSubLease). Zero means the wire default.
	SubLease time.Duration
	// ReadyTimeout bounds the wait for every replica's refresh stream
	// at startup. Zero means 10s.
	ReadyTimeout time.Duration
}

func (n *NetConfig) dialer(link string) wire.Dialer {
	if n.DialerFor == nil {
		return nil
	}
	return n.DialerFor(link)
}

// netCluster holds the wire-layer pieces of a networked cluster.
type netCluster struct {
	cfg         NetConfig
	certSrv     *wire.CertServer
	certClients []*wire.CertClient
	repSrvs     []*wire.ReplicaServer
	gateway     *wire.Gateway
}

// NewNetworked builds and starts a cluster deployed over real loopback
// TCP: a certifier server, one replica server per replica (each with
// its own certifier client), and a gateway — the same topology
// cmd/sconrepd runs multi-process. Sessions opened on the returned
// cluster talk to the gateway through wire.Client connections, so
// every link can be faulted via NetConfig.DialerFor.
func NewNetworked(cfg Config, ncfg NetConfig) (*Cluster, error) {
	if cfg.Replicas < 1 || cfg.Replicas > 64 {
		return nil, fmt.Errorf("cluster: replica count %d out of range [1,64]", cfg.Replicas)
	}
	if ncfg.StreamGrace <= 0 {
		ncfg.StreamGrace = 500 * time.Millisecond
	}
	if ncfg.ReadyTimeout <= 0 {
		ncfg.ReadyTimeout = 10 * time.Second
	}
	c, err := newCore(cfg)
	if err != nil {
		return nil, err
	}
	n := &netCluster{cfg: ncfg}
	c.net = n

	shared := []wire.Option{
		wire.WithTimeouts(ncfg.Timeouts),
		wire.WithBackoff(ncfg.Backoff),
	}

	certSrv, err := wire.ServeCertifier(c.cert, "127.0.0.1:0",
		append(shared, wire.WithSubLease(ncfg.SubLease))...)
	if err != nil {
		return nil, err
	}
	n.certSrv = certSrv

	repAddrs := make([]string, 0, cfg.Replicas)
	labelByAddr := make(map[string]string)
	c.stores = make([]*pstore.Store, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		var backend storage.Backend
		if cfg.DataDir != "" {
			st, err := c.openStore(i, nil)
			if err != nil {
				n.close(c)
				return nil, err
			}
			c.stores[i] = st
			backend = st
		} else {
			backend = storage.MemBackend{Eng: storage.NewEngine()}
		}
		// The certifier client's Vlocal callback must track the live
		// engine: a disk restart (RecoverFrom) swaps it, and a
		// resubscription reporting the dead engine's version would make
		// the certifier backfill the wrong suffix. The replica does not
		// exist yet when we dial, so route through a slot filled right
		// after construction.
		var rslot atomic.Pointer[replica.Replica]
		eng := backend.Engine()
		vlocal := func() uint64 {
			if r := rslot.Load(); r != nil {
				return r.Version()
			}
			return eng.Version()
		}
		cc := wire.DialCertifier(certSrv.Addr(), i, 0,
			append(shared,
				wire.WithDialer(ncfg.dialer(CertLink(i))),
				wire.WithVLocal(vlocal),
				wire.WithShards(c.replicaShards(i)))...)
		n.certClients = append(n.certClients, cc)
		r := replica.NewWithBackend(replica.Config{
			ID:        i,
			EarlyCert: !cfg.DisableEarlyCert,
			Latency:   latency.NewSource(cfg.Latency, cfg.Seed+int64(i)*7919+1),
		}, backend, cc)
		rslot.Store(r)
		c.replicas = append(c.replicas, r)
		grace := ncfg.StreamGrace
		gate := func() error {
			if cc.Ready(grace) {
				return nil
			}
			return wire.ErrUnavailable
		}
		srv, err := wire.ServeReplica(r, "127.0.0.1:0",
			append(shared, wire.WithGate(gate))...)
		if err != nil {
			n.close(c)
			return nil, err
		}
		n.repSrvs = append(n.repSrvs, srv)
		repAddrs = append(repAddrs, srv.Addr())
		labelByAddr[srv.Addr()] = ReplicaLink(i)
	}

	gw, err := wire.ServeGateway("127.0.0.1:0", cfg.Mode, repAddrs,
		append(shared, wire.WithDialerFunc(func(addr string) wire.Dialer {
			return ncfg.dialer(labelByAddr[addr])
		}))...)
	if err != nil {
		n.close(c)
		return nil, err
	}
	n.gateway = gw
	// The gateway owns the balancer in networked mode; RegisterTxn,
	// Balancer(), and EnableObs route through it unchanged.
	c.balancer = gw.Balancer()
	c.shardRouting(c.balancer)

	// Wait for every replica's refresh stream before declaring the
	// cluster up: a replica whose subscription never connected would
	// start gated and the first transactions would all reroute.
	deadline := time.Now().Add(ncfg.ReadyTimeout)
	for _, cc := range n.certClients {
		for !cc.Ready(0) {
			if time.Now().After(deadline) {
				n.close(c)
				return nil, fmt.Errorf("cluster: replica refresh streams not up within %s", ncfg.ReadyTimeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return c, nil
}

// GatewayAddr returns the networked gateway's address ("" in-process).
func (c *Cluster) GatewayAddr() string {
	if c.net == nil {
		return ""
	}
	return c.net.gateway.Addr()
}

// CertifierAddr returns the networked certifier's address ("" in-process).
func (c *Cluster) CertifierAddr() string {
	if c.net == nil {
		return ""
	}
	return c.net.certSrv.Addr()
}

// close tears the wire layer down (reverse construction order).
func (n *netCluster) close(c *Cluster) {
	if n.gateway != nil {
		n.gateway.Close()
	}
	for _, s := range n.repSrvs {
		s.Close()
	}
	for _, r := range c.replicas {
		r.Crash()
	}
	for _, cc := range n.certClients {
		cc.Close()
	}
	if n.certSrv != nil {
		n.certSrv.Close()
	}
}
