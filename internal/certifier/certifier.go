// Package certifier implements the certification service of §IV: it
// decides whether update transactions commit, assigns the global
// commit order, makes decisions durable, and forwards refresh
// writesets to the other replicas.
//
// The certifier is the only component that orders commits, which is
// what lets replicas run with non-forced logs (Tashkent-style
// durability) and lets the load balancer track versions without
// coordination.
//
// Beyond the paper's single sequencer, the certifier can be
// partitioned into per-shard sequencers keyed by table groups
// (WithShards): transactions whose writesets fall in one shard certify
// with zero shared locking against other shards, cross-shard
// transactions lock their involved sequencers in ascending shard-ID
// order, and versions are drawn from one global dense counter so every
// replica still applies one contiguous version order.
package certifier

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/latency"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/shard"
	"sconrep/internal/wal"
	"sconrep/internal/writeset"
)

// Refresh is one committed update transaction shipped to a replica
// that did not originate it.
type Refresh struct {
	TxnID   uint64
	Version uint64
	Origin  int // originating replica ID (-1 for recovery replays)
	// WS also carries the certifying span's context (WriteSet.Trace)
	// when tracing is enabled: trace baggage rides the shared writeset
	// clone so this envelope — copied by value through mailbox rings,
	// reorder buffers, and group-apply batches — stays exactly as small
	// as before tracing.
	//
	// WS is nil for a version skip marker: the version was certified on
	// a shard the receiving replica does not subscribe to (or its
	// record was lost with a crashed certifier before anyone saw it),
	// so the replica advances its version counter without applying
	// anything.
	WS *writeset.WriteSet
	// GlobalThrough makes the entry a global-commit notice (eager mode),
	// not a refresh: Version is 0, and every commit the receiving replica
	// originated at or below GlobalThrough has been applied everywhere.
	// Notices are cumulative: a later one repairs a lost one.
	GlobalThrough uint64
}

// Decision is the certifier's answer for one update transaction.
type Decision struct {
	Commit  bool
	Version uint64 // assigned commit version when Commit
}

// ErrSnapshotTooOld is returned when a transaction's snapshot predates
// the certifier's trimmed conflict window; the transaction must abort
// conservatively.
var ErrSnapshotTooOld = errors.New("certifier: snapshot below certification window")

// MaxHistoryBatch caps how many refreshes one History call returns. A
// recovering replica that is far behind loops over pages instead of
// receiving (and allocating, and framing onto the wire) its entire
// missed suffix in one response.
const MaxHistoryBatch = 4096

type historyEntry struct {
	txnID   uint64
	version uint64
	origin  int
	ws      *writeset.WriteSet
}

type eagerWait struct {
	origin int // told when the wait ends
	// waiting tracks the replica IDs that have not yet applied.
	waiting map[int]bool
}

// memoKey identifies one certification request for idempotency.
type memoKey struct {
	origin int
	txnID  uint64
}

// memoEntry is a memoized commit decision. snapshot distinguishes a
// retried request from an unrelated reuse of the same txn ID (e.g.
// after a replica restart).
type memoEntry struct {
	snapshot uint64
	dec      Decision
}

// memoCap bounds each shard's decision memo (FIFO ring eviction). It
// only needs to cover the window between a lost certify response and
// its retry, so a few thousand decisions is plenty.
const memoCap = 8192

// subscriber is one replica's refresh attachment: its mailbox plus the
// set of shards it serves (nil = all shards). Versions certified
// entirely on unserved shards are delivered as skip markers (nil
// writeset) so the replica's contiguous version order survives partial
// subscription.
type subscriber struct {
	mb *Mailbox
	// serves[shard] reports subscription to that shard; nil serves all.
	serves []bool
}

func (s *subscriber) servesAny(shards []int) bool {
	if s.serves == nil {
		return true
	}
	for _, id := range shards {
		if id < len(s.serves) && s.serves[id] {
			return true
		}
	}
	return false
}

// Certifier orders and certifies update transactions. All methods are
// safe for concurrent use.
type Certifier struct {
	// smap keys tables to sequencers; immutable after New.
	smap *shard.Map
	// seqs holds one sequencer per shard; immutable after New.
	seqs []*sequencer
	// version is the latest assigned commit version — one global dense
	// counter, advanced while holding the assigning transaction's
	// shard locks so each shard's history stays version-sorted.
	version atomic.Uint64
	// floor: snapshots below floor cannot be certified.
	floor atomic.Uint64

	mu sync.Mutex
	// subs maps replica ID to its refresh subscriber.
	// guarded by mu
	subs map[int]*subscriber
	log  *wal.Log
	lat  *latency.Source

	// eager mode bookkeeping: per-version apply counters.
	eager bool
	// waits tracks outstanding eager global-commit waits.
	// guarded by mu
	waits map[uint64]*eagerWait
	// through[o] is the highest version of origin o whose wait has ended.
	// Lower ones have too: an ack or an unsubscribe clears a replica from
	// every version at or below at once, and a replica missing from a
	// lower wait subscribed after that version was assigned, so its serve
	// floor is above it.
	// guarded by mu
	through map[int]uint64
	// base is the version this certifier started deciding at (StartAt,
	// RestoreFromWAL): nothing at or below it has a wait, and every
	// subscriber's serve floor is at or above it.
	base atomic.Uint64

	// Live-observability counters (nil-safe no-ops until EnableObs).
	obsCommits *obs.Counter
	obsAborts  *obs.Counter
	obsTooOld  *obs.Counter

	// tracer mints certification spans; nil (one atomic load) until
	// EnableTracing.
	tracer atomic.Pointer[dtrace.Tracer]
}

// Option configures a Certifier.
type Option func(*Certifier)

// WithWAL makes decisions durable in the given log. With shards, every
// sequencer's group-commit stream appends to this one log (Append is
// thread-safe); records from different shards interleave, each shard's
// records in its own order, and recovery re-sorts by version.
func WithWAL(l *wal.Log) Option { return func(c *Certifier) { c.log = l } }

// WithLatency injects the simulated certification costs.
func WithLatency(s *latency.Source) Option { return func(c *Certifier) { c.lat = s } }

// WithEager enables global-commit tracking for eager strong
// consistency.
func WithEager() Option { return func(c *Certifier) { c.eager = true } }

// WithShards partitions certification by the given table→shard map.
// Nil (or a single-shard map) keeps the paper's single sequencer.
func WithShards(m *shard.Map) Option { return func(c *Certifier) { c.smap = m } }

// New returns a certifier at version 0.
func New(opts ...Option) *Certifier {
	c := &Certifier{
		subs:    make(map[int]*subscriber),
		waits:   make(map[uint64]*eagerWait),
		through: make(map[int]uint64),
	}
	for _, o := range opts {
		o(c)
	}
	if c.smap == nil {
		c.smap = shard.Single()
	}
	c.seqs = make([]*sequencer, c.smap.N())
	for i := range c.seqs {
		c.seqs[i] = newSequencer(i, c.log, c.lat)
	}
	return c
}

// Shards returns the number of certification shards.
func (c *Certifier) Shards() int { return len(c.seqs) }

// ShardMap returns the table→shard assignment.
func (c *Certifier) ShardMap() *shard.Map { return c.smap }

// lockAll acquires every sequencer lock in shard-ID order.
func (c *Certifier) lockAll() {
	// lockorder: ascending
	for _, s := range c.seqs {
		s.mu.Lock()
	}
}

func (c *Certifier) unlockAll() {
	for i := len(c.seqs) - 1; i >= 0; i-- {
		c.seqs[i].mu.Unlock()
	}
}

// StartAt initializes the version counter of a fresh certifier to v —
// used when replicas are bootstrapped with identical preloaded data at
// version v outside the replication protocol. Until the first decision
// is certified the counter may be re-raised (never lowered): wire
// hellos adopt each replica's live Vlocal, and a hello racing an
// in-progress bootstrap can land a partial version that a later
// StartAt must supersede. Once any decision exists the counter is
// locked — moving it would re-assign versions already applied.
func (c *Certifier) StartAt(v uint64) error {
	c.lockAll()
	defer c.unlockAll()
	for _, s := range c.seqs {
		if len(s.history) != 0 {
			return errors.New("certifier: StartAt after decisions were certified")
		}
	}
	if v < c.version.Load() {
		return errors.New("certifier: StartAt below current version")
	}
	c.version.Store(v)
	c.base.Store(v)
	return nil
}

// Version returns the latest assigned commit version.
func (c *Certifier) Version() uint64 {
	return c.version.Load()
}

// Subscribe registers a replica to receive every shard's refresh
// stream and returns its mailbox handle. Re-subscribing (recovery)
// replaces the previous mailbox.
func (c *Certifier) Subscribe(replicaID int) *Subscription {
	return c.SubscribeShards(replicaID, nil)
}

// SubscribeShards registers a replica for the refresh streams of the
// given shards only (nil or empty = all shards). Versions certified
// entirely on other shards arrive as skip markers — refreshes with a
// nil writeset — so the replica's version order stays contiguous while
// it receives only the row data it serves.
func (c *Certifier) SubscribeShards(replicaID int, shards []int) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.subs[replicaID]; ok {
		old.mb.Close()
	}
	sub := &subscriber{mb: NewMailbox()}
	if len(shards) > 0 {
		serves := make([]bool, len(c.seqs))
		for _, id := range shards {
			if id >= 0 && id < len(serves) {
				serves[id] = true
			}
		}
		sub.serves = serves
	}
	c.subs[replicaID] = sub
	if c.eager {
		// The subscription opens with where the replica's own commits
		// stand: a notice put in the mailbox this one replaces is not lost.
		c.noticeLocked(replicaID, 0)
	}
	return &Subscription{Mailbox: sub.mb, c: c, replicaID: replicaID}
}

// noticeLocked records that origin's commits through v are globally
// committed (0: nothing new) and puts the cumulative notice in its
// mailbox. An origin that is not subscribed gets it when it is again.
//
// Caller holds c.mu.
func (c *Certifier) noticeLocked(origin int, v uint64) {
	v = max(v, c.through[origin], c.base.Load())
	c.through[origin] = v
	if sub, ok := c.subs[origin]; ok {
		sub.mb.Put(Refresh{Origin: origin, GlobalThrough: v})
	}
}

// clearLocked stops every wait at or below v waiting for replicaID;
// one that waits for nobody else is over.
//
// Caller holds c.mu.
func (c *Certifier) clearLocked(replicaID int, v uint64) {
	for ver, w := range c.waits {
		if ver > v || !w.waiting[replicaID] {
			continue
		}
		delete(w.waiting, replicaID)
		if len(w.waiting) == 0 {
			delete(c.waits, ver)
			c.noticeLocked(w.origin, ver)
		}
	}
}

// Unsubscribe detaches a replica (crash). Pending eager waits stop
// counting it.
func (c *Certifier) Unsubscribe(replicaID int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.unsubscribeLocked(replicaID)
}

func (c *Certifier) unsubscribeLocked(replicaID int) {
	if sub, ok := c.subs[replicaID]; ok {
		sub.mb.Close()
		delete(c.subs, replicaID)
	}
	// A crashed replica will never ack: stop waiting for it.
	c.clearLocked(replicaID, math.MaxUint64)
}

// Subscription is one replica's attachment to the certifier: its
// mailbox, whose Take blocks for the next batch of refreshes (and, under
// eager mode, global-commit notices) and reports ok false once the
// replica unsubscribes or subscribes again.
type Subscription struct {
	*Mailbox
	c         *Certifier
	replicaID int
}

// Cancel unsubscribes the replica only if this subscription is still
// its current one. A stale stream handler (the replica already
// resubscribed, perhaps through a restarted server) must not detach
// the live subscription; its dead mailbox is simply closed.
func (s *Subscription) Cancel() {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if cur, ok := s.c.subs[s.replicaID]; ok && cur.mb == s.Mailbox {
		s.c.unsubscribeLocked(s.replicaID)
		return
	}
	s.Close()
}

// GlobalTracked reports whether the certifier was built WithEager:
// whether it counts the subscriber's apply acknowledgments and sends it
// global-commit notices.
func (s *Subscription) GlobalTracked() bool { return s.c.eager }

// EnableObs registers the certifier's live metrics with reg: the
// version counter (Vsystem as the certifier sees it), certification
// and conflict rates, group-log backlog, per-replica mailbox depth,
// and outstanding eager global-commit waits. Call once, before
// serving traffic.
func (c *Certifier) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	c.obsCommits = reg.Counter("sconrep_certifier_commits_total",
		"Update transactions certified and committed.")
	c.obsAborts = reg.Counter("sconrep_certifier_conflicts_total",
		"Update transactions rejected by the first-committer-wins test.")
	c.obsTooOld = reg.Counter("sconrep_certifier_snapshot_too_old_total",
		"Transactions rejected because their snapshot predates the trimmed conflict window.")
	c.mu.Unlock()
	reg.GaugeFunc("sconrep_certifier_version",
		"Latest assigned commit version (the system-wide Vsystem source).",
		func() float64 { return float64(c.Version()) })
	reg.GaugeFunc("sconrep_certifier_group_log_pending",
		"Decision-log records enqueued for the group-commit flush but not yet durable, across shards.",
		func() float64 {
			n := 0
			for _, s := range c.seqs {
				n += s.glog.pendingLen()
			}
			return float64(n)
		})
	reg.GaugeFunc("sconrep_certifier_eager_outstanding",
		"Committed versions still waiting for every replica's apply acknowledgment (eager mode).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.waits))
		})
	reg.GaugeFunc("sconrep_certifier_history_len",
		"Refresh history entries retained for recovery catch-up (trimmed by TrimBelow), across shards.",
		func() float64 {
			n := 0
			for _, s := range c.seqs {
				s.mu.Lock()
				n += len(s.history)
				s.mu.Unlock()
			}
			return float64(n)
		})
	reg.GaugeFunc("sconrep_certifier_subscribed_replicas",
		"Replicas currently attached to the refresh stream.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.subs))
		})
	reg.GaugeVecFunc("sconrep_certifier_mailbox_depth",
		"Refresh writesets queued per replica mailbox, not yet taken by its applier.",
		"replica", func() map[string]float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make(map[string]float64, len(c.subs))
			for id, sub := range c.subs {
				out[strconv.Itoa(id)] = float64(sub.mb.QueueLen())
			}
			return out
		})
}

// EnableTracing attaches the distributed tracer; certifications then
// record certifier.certify spans (with the group-log append as a child
// span) parented under the caller's wire-propagated context. Call
// before traffic.
func (c *Certifier) EnableTracing(tr *dtrace.Tracer) { c.tracer.Store(tr) }

// TableVersions returns the latest commit version that wrote each
// table — the authoritative side of per-table replication lag. Tables
// never written do not appear.
func (c *Certifier) TableVersions() map[string]uint64 {
	out := make(map[string]uint64)
	for _, s := range c.seqs {
		s.mu.Lock()
		for t, v := range s.tableVers {
			out[t] = v
		}
		s.mu.Unlock()
	}
	return out
}

// Certify decides one update transaction: it commits iff its writeset
// does not conflict with any writeset committed after the
// transaction's snapshot (the GSI first-committer-wins test, §IV).
// On commit the decision is logged, the conflict index updated, and
// the refresh fanned out to every replica except the origin.
func (c *Certifier) Certify(origin int, txnID, snapshot uint64, ws *writeset.WriteSet) (Decision, error) {
	return c.CertifyCtx(origin, txnID, snapshot, ws, dtrace.SpanContext{})
}

// CertifyCtx is Certify with the caller's span context: the decision
// is recorded as a certifier.certify span parented under sc, and the
// fanned-out refreshes carry the certify span so remote applies join
// the same trace.
//
// Sharded certification runs in two steps. Reserve: lock every
// involved sequencer in ascending shard-ID order (deadlock-free; two
// conflicting transactions share a table and therefore a shard, so
// first-committer-wins serialization is preserved), run the conflict
// test against each involved shard's index, and draw the next global
// version. Seal: install the writeset in each involved index, record
// the decision in the home shard (lowest involved ID), and release the
// locks; durability and fan-out then proceed through the home shard's
// group log without blocking other shards.
func (c *Certifier) CertifyCtx(origin int, txnID, snapshot uint64, ws *writeset.WriteSet, sc dtrace.SpanContext) (Decision, error) {
	if ws.Empty() {
		return Decision{}, fmt.Errorf("certifier: empty writeset for txn %d (read-only transactions commit locally)", txnID)
	}
	span := c.tracer.Load().StartSpan("certifier.certify", sc)
	defer span.End()
	span.SetAttr("origin", strconv.Itoa(origin))
	shardIDs := c.smap.OfTables(ws.Tables())
	home := c.seqs[shardIDs[0]]

	// Reserve: involved shard locks, ascending (OfTables returns
	// sorted unique IDs).
	// lockorder: ascending
	for _, id := range shardIDs {
		c.seqs[id].mu.Lock()
	}
	unlock := func() {
		for i := len(shardIDs) - 1; i >= 0; i-- {
			c.seqs[shardIDs[i]].mu.Unlock()
		}
	}
	// Retried request (the response was lost in transit): return the
	// original commit decision instead of assigning a second version.
	// Only commits are memoized — re-certifying an aborted transaction
	// re-aborts it, since the conflict index only grows. The memo lives
	// in the home shard, which a retry recomputes identically from the
	// same writeset.
	if m, ok := home.memo[memoKey{origin, txnID}]; ok && m.snapshot == snapshot {
		unlock()
		span.SetAttr("decision", "memoized")
		return m.dec, nil
	}
	if snapshot < c.floor.Load() {
		c.obsTooOld.Inc()
		unlock()
		span.SetAttr("decision", "snapshot_too_old")
		return Decision{}, ErrSnapshotTooOld
	}
	if c.lat != nil {
		c.lat.Certify()
	}
	for _, id := range shardIDs {
		if c.seqs[id].index.ConflictsAfter(ws, snapshot) {
			c.obsAborts.Inc()
			unlock()
			span.SetAttr("decision", "conflict")
			return Decision{Commit: false}, nil
		}
	}
	c.obsCommits.Inc()
	// Seal: draw the global version while the involved locks are held
	// (per-shard histories stay version-sorted), install, record.
	v := c.version.Add(1)
	cp := ws.Clone()
	if span != nil {
		sc := span.Context()
		cp.Trace = &sc
	}
	for _, id := range shardIDs {
		c.seqs[id].index.Add(cp, v)
	}
	for _, t := range cp.Tables() {
		s := c.seqs[c.smap.Of(t)]
		s.tableVers[t] = v
	}
	home.history = append(home.history, historyEntry{txnID: txnID, version: v, origin: origin, ws: cp})
	home.memoPut(memoKey{origin, txnID}, memoEntry{snapshot: snapshot, dec: Decision{Commit: true, Version: v}})
	home.seq++
	seqNo := home.seq
	unlock()

	if c.eager {
		// Every subscribed replica other than the origin must apply
		// before the global commit completes.
		c.mu.Lock()
		waiting := make(map[int]bool, len(c.subs))
		for id := range c.subs {
			if id != origin {
				waiting[id] = true
			}
		}
		if len(waiting) > 0 {
			c.waits[v] = &eagerWait{origin: origin, waiting: waiting}
		} else {
			c.noticeLocked(origin, v)
		}
		c.mu.Unlock()
	}

	span.SetAttr("decision", "commit")
	span.SetAttr("version", strconv.FormatUint(v, 10))

	// Durability before propagation, via the home shard's group commit:
	// records reach the log in per-shard order, one forced write
	// amortized over each shard's contiguous batch of concurrent
	// committers. (Durability ordering is per shard, not global — see
	// DESIGN.md: a version whose record is lost with a crashed
	// certifier was never acknowledged or fanned out, and recovery
	// replays it as a skip marker.)
	logSpan := c.tracer.Load().StartSpan("certifier.log_append", span.Context())
	err := home.glog.commit(seqNo, &wal.Record{Version: v, TxnID: txnID, WriteSet: *cp})
	logSpan.End()
	if err != nil {
		return Decision{}, fmt.Errorf("certifier: durability: %w", err)
	}

	// Fan out the refresh writeset, each refresh carrying the certify
	// span so remote applies parent under this certification. Replicas
	// not subscribed to any involved shard get a skip marker (nil
	// writeset) so their version order stays contiguous. Mailbox
	// arrival order is not guaranteed to be version order across
	// concurrent commits; the replica applier reorders by version.
	c.mu.Lock()
	for id, sub := range c.subs {
		if id == origin {
			continue
		}
		r := Refresh{TxnID: txnID, Version: v, Origin: origin, WS: cp}
		if !sub.servesAny(shardIDs) {
			r.WS = nil
		}
		sub.mb.Put(r)
	}
	c.mu.Unlock()
	return Decision{Commit: true, Version: v}, nil
}

// Applied records that a replica other than the origin has applied and
// committed version v — the eager mode's global-commit accounting.
// Acks are cumulative: replicas apply in strict version order, so an
// ack for v also clears the replica from every wait below v. That
// makes coalesced and retried acks (the wire client ships only the
// highest version) sound. Without eager mode no wait exists and the
// call returns before the lock the refresh fan-out holds.
func (c *Certifier) Applied(replicaID int, v uint64) {
	if !c.eager {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clearLocked(replicaID, v)
}

// History returns one version-ordered page (at most MaxHistoryBatch
// entries) of the refresh stream with versions above after, for a
// recovering replica to catch up from its durable state. Callers loop
// until an empty page; pages are contiguous, so together with the
// caller's live subscription (established before the first History
// call) every version is delivered exactly by one of the two paths —
// the reorder buffer deduplicates overlap. Each shard's history is
// version-sorted by construction, so the per-shard cut is a binary
// search and the page a bounded k-way merge — no call scans or copies
// the whole retained history.
//
// Contiguity across shards is load-bearing: a version reserved by a
// concurrent certification that has not sealed into its shard's
// history yet must not be skipped — a higher version on another shard
// may have been fanned out before the caller subscribed, so truncating
// at the gap and relying on the stream would lose it forever. History
// therefore waits out in-flight seals (they last one certification
// critical section) instead of returning a page with a hole.
func (c *Certifier) History(after uint64) []Refresh {
	for {
		out, ok := c.historyPage(after)
		if ok {
			return out
		}
		// The version right above after is assigned but mid-seal on its
		// shard; it lands as soon as the writer leaves its critical
		// section.
		time.Sleep(20 * time.Microsecond)
	}
}

// historyPage builds one page; ok is false when the page would start
// at an assigned-but-not-yet-sealed version and the caller must retry.
func (c *Certifier) historyPage(after uint64) ([]Refresh, bool) {
	// Per-shard pages, each cut by binary search under that shard's
	// lock only.
	pages := make([][]historyEntry, 0, len(c.seqs))
	for _, s := range c.seqs {
		s.mu.Lock()
		if p := s.historyAfter(after); len(p) > 0 {
			pages = append(pages, p)
		}
		s.mu.Unlock()
	}
	if len(pages) == 0 {
		// Nothing recorded above after. Versions in (after, Version()]
		// that are still mid-seal will fan out after the caller's
		// subscription, so an empty page is a safe "caught up".
		return nil, true
	}
	// K-way merge by version; one shard is a merge of one page. A gap at
	// the front of the page means the missing version is assigned but
	// mid-seal — retry. A gap after some progress truncates the page (the
	// next call resumes at the gap). A front jump below the trim floor is
	// a trimmed prefix the caller detects and resynchronizes on.
	n := 0
	for _, p := range pages {
		n += len(p)
	}
	out := make([]Refresh, 0, min(n, MaxHistoryBatch))
	next := after + 1
	for len(out) < MaxHistoryBatch {
		best := -1
		for i, p := range pages {
			if len(p) == 0 {
				continue
			}
			if best == -1 || p[0].version < pages[best][0].version {
				best = i
			}
		}
		if best == -1 {
			break
		}
		h := pages[best][0]
		if h.version != next {
			if len(out) != 0 {
				break
			}
			if after >= c.floor.Load() {
				return nil, false
			}
			// Trimmed region: the page legitimately starts above
			// after+1; the caller sees the jump and resynchronizes.
			next = h.version
		}
		out = append(out, Refresh{TxnID: h.txnID, Version: h.version, Origin: -1, WS: h.ws})
		next = h.version + 1
		pages[best] = pages[best][1:]
	}
	return out, true
}

// FilterUnserved replaces the writeset of every refresh certified
// entirely outside the given shard set with a skip marker (nil
// writeset), in place — the history-backfill counterpart of a partial
// refresh subscription. A nil or empty shard set serves everything and
// returns refs untouched.
func (c *Certifier) FilterUnserved(refs []Refresh, shards []int) []Refresh {
	if len(shards) == 0 {
		return refs
	}
	serves := make([]bool, len(c.seqs))
	for _, id := range shards {
		if id >= 0 && id < len(serves) {
			serves[id] = true
		}
	}
	for i := range refs {
		if refs[i].WS == nil {
			continue
		}
		served := false
		for _, id := range c.smap.OfTables(refs[i].WS.Tables()) {
			if serves[id] {
				served = true
				break
			}
		}
		if !served {
			refs[i].WS = nil
		}
	}
	return refs
}

// TrimBelow discards conflict-index entries and history at or below
// watermark. Transactions with older snapshots are subsequently
// rejected with ErrSnapshotTooOld, so the watermark must not exceed
// the oldest version any replica could still begin a transaction at.
func (c *Certifier) TrimBelow(watermark uint64) {
	for {
		old := c.floor.Load()
		if watermark <= old {
			return
		}
		if c.floor.CompareAndSwap(old, watermark) {
			break
		}
	}
	for _, s := range c.seqs {
		s.mu.Lock()
		s.index.Forget(watermark)
		keep := s.history[:0]
		for _, h := range s.history {
			if h.version > watermark {
				keep = append(keep, h)
			}
		}
		s.history = keep
		s.mu.Unlock()
	}
}

// Replicas returns the IDs of currently subscribed replicas.
func (c *Certifier) Replicas() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.subs))
	for id := range c.subs {
		out = append(out, id)
	}
	return out
}

// RestoreFromWAL rebuilds certifier state (version counter, conflict
// indexes, history) by replaying a decision log — certifier crash
// recovery.
//
// Records of different shards interleave in the log, each shard's in
// its own order: a shard's group log appends in seq order, and seq
// order is version order under the home lock. So a record at or below
// its home shard's previous one is corruption, whatever the shard
// count. The replay is then sorted by version; a version recorded twice
// is corruption, and a missing version — reserved by a sequencer whose
// record did not reach the log before the crash — is replayed as a skip
// marker (nil writeset): such a transaction was never acknowledged or
// fanned out, so no replica and no client ever observed it. Only
// another shard can have lost a version between two durable ones: under
// a one-shard map every version is home to shard 0, whose records are
// dense, so there a gap is corruption too.
func (c *Certifier) RestoreFromWAL(records func(fn func(*wal.Record) error) error) error {
	c.lockAll()
	defer c.unlockAll()
	if c.version.Load() != 0 {
		return errors.New("certifier: RestoreFromWAL on non-empty certifier")
	}
	for _, s := range c.seqs {
		if len(s.history) != 0 {
			return errors.New("certifier: RestoreFromWAL on non-empty certifier")
		}
	}
	type rec struct {
		version uint64
		txnID   uint64
		ws      *writeset.WriteSet
		shards  []int // involved shards, home first
	}
	var recs []rec
	// lastOf[h] is the version of home shard h's previous record (no
	// version is 0).
	lastOf := make([]uint64, len(c.seqs))
	err := records(func(r *wal.Record) error {
		ids := c.smap.OfTables(r.WriteSet.Tables())
		home := ids[0]
		if r.Version <= lastOf[home] {
			return fmt.Errorf("certifier: wal corrupt: shard %d logged version %d after %d", home, r.Version, lastOf[home])
		}
		lastOf[home] = r.Version
		recs = append(recs, rec{version: r.Version, txnID: r.TxnID, ws: r.WriteSet.Clone(), shards: ids})
		return nil
	})
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].version < recs[j].version })
	// The first record sets the baseline: data bootstrapped at
	// StartAt(v) makes the log begin at v+1.
	prev := recs[0].version - 1
	markers := c.seqs[0] // lost versions are recorded on shard 0
	for _, r := range recs {
		if r.version == prev {
			return fmt.Errorf("certifier: wal corrupt: version %d recorded twice", r.version)
		}
		if r.version != prev+1 && c.smap.N() == 1 {
			return fmt.Errorf("certifier: wal gap: have %d, next record %d", prev, r.version)
		}
		// Versions lost between durable records: reserved by a shard
		// whose group flush never completed. Nobody observed them;
		// replicas advance past them without applying.
		for v := prev + 1; v < r.version; v++ {
			markers.history = append(markers.history, historyEntry{version: v, origin: -1, ws: nil})
		}
		home := c.seqs[r.shards[0]]
		for _, id := range r.shards {
			s := c.seqs[id]
			s.index.Add(r.ws, r.version)
		}
		for _, t := range r.ws.Tables() {
			s := c.seqs[c.smap.Of(t)]
			s.tableVers[t] = r.version
		}
		home.history = append(home.history, historyEntry{txnID: r.txnID, version: r.version, origin: -1, ws: r.ws})
		home.seq++
		prev = r.version
	}
	c.version.Store(prev)
	c.base.Store(prev)
	// Continue each shard's durable log exactly where its replay ended.
	for _, s := range c.seqs {
		s.glog.startAt(s.seq)
	}
	return nil
}
