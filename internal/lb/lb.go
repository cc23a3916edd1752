// Package lb implements the load balancer of §IV: the intermediary
// that hides the cluster from clients. It routes each transaction to
// the replica with the fewest active transactions, and tags the
// request with the minimum start version the session's consistency
// mode requires — which is where the coarse-grained, fine-grained, and
// session techniques actually live.
//
// The load balancer holds soft state only (active counts, Vsystem and
// Vt, the table-set dictionary); it can be rebuilt from replica
// responses, which is the paper's fault-tolerance argument for using a
// standby rather than replicating it. It keeps nothing per session: a
// session's floor (core.Floor) comes with each dispatch, from the
// client that holds it.
package lb

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"sconrep/internal/core"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
)

// Node is the view of a replica the balancer needs for routing.
type Node interface {
	ID() int
	Active() int
	Crashed() bool
}

// ErrNoReplicas is returned when every replica is crashed.
var ErrNoReplicas = errors.New("lb: no live replicas")

// LoadBalancer routes transactions and enforces the consistency mode
// by version tagging.
type LoadBalancer struct {
	mode     core.Mode
	tracker  *core.Tracker
	registry *core.TableSetRegistry

	mu sync.Mutex
	// nodes is the routing set.
	// guarded by mu
	nodes []Node
	// rr breaks ties among equally loaded replicas so a idle cluster
	// still spreads sessions.
	// guarded by mu
	rr int
	// smap is the first shard map recorded; with N>1, a transaction is
	// routed only to replicas subscribed to every shard it touches.
	// guarded by mu
	smap *shard.Map
	// served maps node ID to its subscribed shard set; a missing or nil
	// entry serves all shards.
	// guarded by mu
	served map[int][]int

	// Live-observability instruments (nil-safe no-ops until EnableObs).
	obsRouted   *obs.CounterVec
	obsNoLive   *obs.Counter
	obsDegraded *obs.Counter

	// tracer mints lb.route spans; nil until EnableTracing.
	tracer atomic.Pointer[dtrace.Tracer]
}

// EnableTracing attaches the distributed tracer: each dispatch then
// records an lb.route span (replica chosen, start-version tag) under
// the caller's span context. Call before traffic.
func (l *LoadBalancer) EnableTracing(tr *dtrace.Tracer) { l.tracer.Store(tr) }

// New returns a balancer over the given replicas.
func New(mode core.Mode, nodes []Node) *LoadBalancer {
	return &LoadBalancer{
		mode:     mode,
		tracker:  core.NewTracker(),
		registry: core.NewTableSetRegistry(),
		nodes:    append([]Node(nil), nodes...),
		served:   make(map[int][]int),
	}
}

// Mode returns the consistency configuration in force.
func (l *LoadBalancer) Mode() core.Mode { return l.mode }

// Tracker exposes the version accounting (tests, monitoring).
func (l *LoadBalancer) Tracker() *core.Tracker { return l.tracker }

// Registry exposes the transaction table-set dictionary.
func (l *LoadBalancer) Registry() *core.TableSetRegistry { return l.registry }

// RegisterTxn records the static table-set for a named transaction —
// the dictionary the fine-grained mode consults (§IV-B stores it in
// the database; here the application registers its prepared
// transactions at startup, which is equivalent and keeps the
// dictionary warm).
func (l *LoadBalancer) RegisterTxn(name string, tableSet []string) {
	l.registry.Register(name, tableSet)
}

// EnableObs registers the balancer's live metrics with reg:
// per-replica routing counts, live-replica count, and the version
// accounting (Vsystem, per-table Vt) the consistency modes tag
// transactions with. Call once, before serving traffic.
func (l *LoadBalancer) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.mu.Lock()
	l.obsRouted = reg.CounterVec("sconrep_lb_routed_total",
		"Transactions dispatched, by destination replica.", "replica")
	l.obsNoLive = reg.Counter("sconrep_lb_no_live_replicas_total",
		"Dispatch attempts that failed because every replica was crashed.")
	l.obsDegraded = reg.Counter("sconrep_lb_fine_degraded_total",
		"Fine-grained dispatches degraded to coarse because the transaction name was unregistered (§V-D).")
	l.mu.Unlock()
	reg.GaugeFunc("sconrep_lb_live_replicas",
		"Replicas currently considered live for routing.",
		func() float64 { return float64(l.LiveReplicas()) })
	reg.GaugeFunc("sconrep_lb_vsystem",
		"Vsystem: the newest commit version the balancer has observed.",
		func() float64 { return float64(l.tracker.VSystem()) })
	reg.GaugeVecFunc("sconrep_lb_table_version",
		"Vt per table as tracked by the balancer (fine-grained start bound).",
		"table", func() map[string]float64 {
			_, tables := l.tracker.Snapshot()
			out := make(map[string]float64, len(tables))
			for tab, v := range tables {
				out[tab] = float64(v)
			}
			return out
		})
}

// SetShardRouting records that node id subscribes to served (nil or
// empty = all shards) under smap, its certifier's table→shard map. The
// first map recorded is the balancer's; for another it records nothing
// and reports false. With several shards, dispatch is shard-aware: a
// transaction routes only to replicas that cover every shard its
// table-set touches (the registry is consulted for routing in every
// consistency mode, not just fine-grained); one whose table-set is
// unknown routes to full-coverage replicas only, trading balance for
// correctness exactly like the fine-grained mode's coarse degradation.
// The gateway calls it during traffic, on each status answer.
func (l *LoadBalancer) SetShardRouting(id int, smap *shard.Map, served []int) bool {
	if len(served) == 0 {
		served = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.smap == nil {
		l.smap = smap
	} else if !l.smap.Equal(smap) {
		return false
	}
	l.served[id] = served
	return true
}

// AddNode attaches a replica to the routing set.
func (l *LoadBalancer) AddNode(n Node) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nodes = append(l.nodes, n)
}

// Route describes where and how a transaction should start.
type Route struct {
	Node Node
	// MinVersion is the synchronization start bound the replica must
	// reach before the transaction begins.
	MinVersion uint64
	// Trace is the lb.route span's context (zero when lb tracing is
	// off). A gateway fronting an untraced client can parent the
	// replica's work under it so the deployment still yields one
	// stitched, gateway-rooted tree.
	Trace dtrace.SpanContext
}

// pick selects the live replica with the fewest active transactions
// among those covering every shard in need (nil need = any replica),
// breaking ties round-robin.
func (l *LoadBalancer) pick(need []int) (Node, error) {
	l.mu.Lock()
	var best Node
	bestActive := int(^uint(0) >> 1)
	n := len(l.nodes)
	for i := 0; i < n; i++ {
		node := l.nodes[(l.rr+i)%n]
		if node.Crashed() {
			continue
		}
		if need != nil && !shard.Covers(l.served[node.ID()], need) {
			continue
		}
		if a := node.Active(); a < bestActive {
			best = node
			bestActive = a
		}
	}
	l.rr++
	l.mu.Unlock()
	if best == nil {
		l.obsNoLive.Inc()
		return nil, ErrNoReplicas
	}
	l.obsRouted.With(strconv.Itoa(best.ID())).Inc()
	return best, nil
}

// requiredShards maps a transaction's table-set to the shards a
// serving replica must subscribe to. Nil when sharding is off (no
// routing constraint). known is false for an unregistered table-set:
// the transaction may touch anything, so only full-coverage replicas
// qualify.
func (l *LoadBalancer) requiredShards(tables []string, known bool) []int {
	l.mu.Lock()
	smap := l.smap
	l.mu.Unlock()
	if smap == nil || smap.N() == 1 {
		return nil
	}
	if !known {
		all := make([]int, smap.N())
		for i := range all {
			all[i] = i
		}
		return all
	}
	return smap.OfTables(tables)
}

// Dispatch picks a replica (least active transactions, skipping
// crashed nodes) and computes the start-version tag for a transaction
// of a session that holds no floor.
//
// txnName selects the table-set under fine-grained consistency; an
// unregistered or empty name falls back to coarse-grained treatment
// (synchronize on Vsystem), preserving strong consistency when the
// workload information is missing — the degradation §V-D describes.
func (l *LoadBalancer) Dispatch(sessionID, txnName string) (Route, error) {
	return l.DispatchCtx(sessionID, txnName, nil, core.Floor{}, dtrace.SpanContext{})
}

// DispatchCtx is Dispatch for a session whose floor is floor, under the
// caller's span context: the start tag is the maximum of the mode's
// bound and the floor (core.Tracker.MinStartVersion), and the routing
// decision is recorded as an lb.route span annotated with the session,
// the chosen replica and the tag. A non-empty tables is the
// transaction's table-set, stated by the client instead of looked up
// under txnName — the paper's footnote-1 alternative; under non-fine
// modes it only constrains shard routing.
func (l *LoadBalancer) DispatchCtx(sessionID, txnName string, tables []string, floor core.Floor, sc dtrace.SpanContext) (Route, error) {
	span := l.tracer.Load().StartSpan("lb.route", sc)
	defer span.End()
	// The table-set drives routing in every mode once sharding is on,
	// not just fine-grained version tagging: a replica with a partial
	// shard subscription never sees row data for other shards, so it
	// must not serve transactions that touch them.
	known := len(tables) > 0
	if !known {
		tables, known = l.registry.Lookup(txnName)
	}
	node, err := l.pick(l.requiredShards(tables, known))
	if err != nil {
		span.SetAttr("error", err.Error())
		return Route{}, err
	}
	mode := l.mode
	if mode == core.Fine && !known {
		// Unknown workload: degrade to coarse, never to weaker.
		l.obsDegraded.Inc()
		mode = core.Coarse
	}
	route := Route{Node: node, MinVersion: l.tracker.MinStartVersion(mode, tables, floor), Trace: span.Context()}
	if span != nil {
		span.SetAttr("session", sessionID)
		span.SetAttr("replica", strconv.Itoa(node.ID()))
		span.SetAttr("min_version", strconv.FormatUint(route.MinVersion, 10))
	}
	return route, nil
}

// ObserveCommit folds a replica's commit response into the version
// accounting: an update advances Vsystem and its written tables' Vt; a
// read-only commit moves nothing here. The session's own floor is its
// client's to raise, and the session ID is unused.
func (l *LoadBalancer) ObserveCommit(_ string, res replica.CommitResult) {
	if !res.ReadOnly {
		l.tracker.ObserveCommit(res.Version, res.WrittenTables)
	}
}

// LiveReplicas returns the number of non-crashed nodes.
func (l *LoadBalancer) LiveReplicas() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, node := range l.nodes {
		if !node.Crashed() {
			n++
		}
	}
	return n
}
