package cluster

import (
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"sconrep/internal/history"
	"sconrep/internal/latency"
	"sconrep/internal/metrics"
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

// NetConfig configures the wire layer of a cluster's nodes (see
// node.go): per-link dialers for fault injection and the wire layer's
// hardening knobs.
type NetConfig struct {
	// DialerFor returns the dialer for a link label (LinkClient,
	// CertLink(i), ReplicaLink(i)); nil — or a nil return — means
	// net.Dial. The fault injector's Injector.Dialer plugs in here.
	DialerFor func(link string) wire.Dialer
	// Timeouts bounds the I/O of every link. Its Idle is also the
	// refresh stream's partition detector; zero runs none.
	Timeouts wire.Timeouts
	// Backoff is the reconnect/retry schedule for all links.
	Backoff wire.Backoff
	// SubLease is the certifier's subscription lease (wire.WithSubLease);
	// zero means the wire default. Every subAck carries it, and a replica
	// serves for a quarter of it after its stream drops; NewNetworked and
	// every replica refuse a lease Timeouts.Idle leaves no room for
	// (wire.CheckLease).
	SubLease time.Duration
}

// readyTimeout bounds NewNetworked's wait for every replica's refresh
// stream.
const readyTimeout = 10 * time.Second

func (n *NetConfig) dialer(link string) wire.Dialer {
	if n.DialerFor == nil {
		return nil
	}
	return n.DialerFor(link)
}

// delayLinks composes dialerFor with the latency model's one-way
// delay: every connection dialed on a link pays m.OneWay per message
// (latency.Source.Link), drawn from one source per link, seeded by seed
// and the link's label, so one link's jitter does not depend on
// another's traffic.
func delayLinks(m latency.Model, seed int64, dialerFor func(link string) wire.Dialer) func(link string) wire.Dialer {
	var mu sync.Mutex
	srcs := make(map[string]*latency.Source)
	return func(link string) wire.Dialer {
		mu.Lock()
		src := srcs[link]
		if src == nil {
			h := fnv.New64a()
			h.Write([]byte(link))
			src = latency.NewSource(m, seed^int64(h.Sum64()))
			srcs[link] = src
		}
		mu.Unlock()
		var dial wire.Dialer = net.Dial
		if dialerFor != nil {
			if d := dialerFor(link); d != nil {
				dial = d
			}
		}
		return func(network, addr string) (net.Conn, error) {
			c, err := dial(network, addr)
			if err != nil {
				return nil, err
			}
			return src.Link(c), nil
		}
	}
}

// NewNetworked builds and starts a cluster on loopback TCP: a
// certifier node, one replica node per replica and a gateway node, each
// started through the same StartCertifier / StartReplica / StartGateway
// that cmd/sconrepd runs one per process. Sessions opened on the
// returned cluster talk to the gateway through wire.Client connections,
// so every link can be faulted via NetConfig.DialerFor. When the latency
// model has a one-way delay, every link's dialer — the caller's, if it
// gave one — is wrapped to charge it per message. A configuration
// whose replicas would refuse its lease is an error (wire.CheckLease).
func NewNetworked(cfg Config, ncfg NetConfig) (*Cluster, error) {
	if err := wire.CheckLease(ncfg.Timeouts.Idle, ncfg.SubLease); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Latency.OneWay > 0 {
		ncfg.DialerFor = delayLinks(cfg.Latency, cfg.Seed, ncfg.DialerFor)
	}
	ccfg, err := cfg.certifierConfig()
	if err != nil {
		return nil, err
	}
	const loopback = "127.0.0.1:0"
	ccfg.Listen, ccfg.Net = loopback, ncfg
	cert, err := StartCertifier(ccfg)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		ncfg:     ncfg,
		certNode: cert,
		cert:     cert.Cert,
		coll:     metrics.NewCollector(),
	}
	if cfg.RecordHistory {
		c.rec = history.NewRecorder()
	}

	gcfg := GatewayConfig{
		Listen:        loopback,
		Mode:          cfg.Mode,
		Shards:        ccfg.Shards,
		ReplicaShards: c.servedShards(),
		Net:           ncfg,
	}
	for i := 0; i < cfg.Replicas; i++ {
		// No Bootstrap: LoadData populates the engines and aligns the
		// stores once the cluster is up.
		r, err := StartReplica(ReplicaConfig{
			Replica:         c.replicaConfig(i),
			Listen:          loopback,
			Certifier:       cert.Addr(),
			DataDir:         c.storeDir(i),
			CheckpointEvery: cfg.CheckpointEvery,
			Shards:          ccfg.Shards,
			ServeShards:     c.replicaShards(i),
			Net:             ncfg,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		r.Replica.OnFinish(c.finished)
		c.nodes = append(c.nodes, r)
		c.replicas = append(c.replicas, r.Replica)
		gcfg.Replicas = append(gcfg.Replicas, r.Addr())
	}

	if c.gateway, err = StartGateway(gcfg); err != nil {
		c.Close()
		return nil, err
	}
	// The gateway owns the balancer: RegisterTxn, Balancer() and
	// EnableObs route through it.
	c.balancer = c.gateway.Balancer()

	// Wait for every replica's refresh stream before declaring the
	// cluster up: a replica whose subscription never connected would
	// start gated and the first transactions would all reroute.
	deadline := time.Now().Add(readyTimeout)
	for _, r := range c.nodes {
		for !r.cc.Ready(0) {
			if time.Now().After(deadline) {
				c.Close()
				return nil, fmt.Errorf("cluster: replica refresh streams not up within %s", readyTimeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return c, nil
}

// GatewayAddr returns the gateway's address.
func (c *Cluster) GatewayAddr() string { return c.gateway.Addr() }
