// Package replica implements one database replica: the proxy of §IV
// plus its embedded DBMS (the storage engine). The proxy
//
//   - delays transaction start until the replica reaches the version
//     the consistency mode demands (synchronization start delay);
//   - executes SQL statements against the local snapshot;
//   - performs early certification: an update statement that conflicts
//     with a pending (received but not yet applied) refresh writeset
//     aborts immediately, and an arriving refresh aborts conflicting
//     active local transactions — the hidden-deadlock prevention of
//     §IV applied to a multiversion engine, where it avoids certainly-
//     futile certification round trips;
//   - routes update commits through the certifier and commits local
//     and refresh transactions in the certifier's global order;
//   - applies refresh writesets in certifier order through a reorder
//     buffer (the certifier may deliver out of version order);
//   - supports crash (detach, keep durable state) and recovery
//     (reattach, catch up from the certifier's history).
package replica

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/latency"
	"sconrep/internal/metrics"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

// Errors surfaced to clients.
var (
	// ErrCertifyConflict is a certification abort: the transaction's
	// writeset conflicted with a concurrently committed transaction.
	ErrCertifyConflict = errors.New("replica: certification conflict, transaction aborted")
	// ErrEarlyAbort is an early-certification abort: the transaction
	// wrote a record that a pending refresh writeset also writes.
	ErrEarlyAbort = errors.New("replica: aborted by early certification against pending refresh")
	// ErrCrashed is returned while the replica is crashed.
	ErrCrashed = errors.New("replica: crashed")
	// ErrTxnDone is returned for operations on a finished transaction.
	ErrTxnDone = errors.New("replica: transaction finished")
	// ErrNotEager refuses an eager commit whose certifier does not track
	// global commits: nobody would ever report it global. The transaction
	// is aborted, and a retry would be too.
	ErrNotEager = errors.New("replica: eager commit, but the certifier does not track global commits")
)

// CertService is the certifier as seen by a replica: local
// (certifier.Certifier via Local) or remote (wire.CertClient).
type CertService interface {
	// Certify submits an update transaction's writeset for
	// certification. sc is the committing span's context (zero when
	// tracing is off); remote implementations ship it on the wire.
	Certify(origin int, txnID, snapshot uint64, ws *writeset.WriteSet, sc dtrace.SpanContext) (certifier.Decision, error)
	// Subscribe attaches the replica to the refresh stream.
	Subscribe(replicaID int) RefreshSource
	// Unsubscribe detaches it (crash).
	Unsubscribe(replicaID int)
	// Applied acknowledges that the replica applied every version up to
	// v. The drainer calls it once per applied batch, outside the
	// replica's lock, so it must not wait for I/O.
	Applied(replicaID int, v uint64)
	// History returns one version-ordered page of refreshes with
	// versions greater than after, for recovery catch-up. A page is
	// capped (certifier.MaxHistoryBatch) and may end early at a version
	// still being certified; callers loop until an empty page and rely
	// on their live subscription for the raced tail.
	History(after uint64) []certifier.Refresh
}

// RefreshSource is one replica's view of its refresh stream.
type RefreshSource interface {
	// Take blocks for the next batch — refreshes and, under eager mode,
	// global-commit notices; ok is false once detached.
	Take() ([]certifier.Refresh, bool)
	// Pending peeks at queued refreshes (early certification).
	Pending() []certifier.Refresh
	// QueueLen returns the number of queued refreshes.
	QueueLen() int
}

// globalTracker is implemented by a RefreshSource whose certifier may
// track global commits, i.e. send the notices an eager commit waits for.
type globalTracker interface {
	GlobalTracked() bool
}

// localCert adapts *certifier.Certifier to CertService (the Subscribe
// return type differs).
type localCert struct {
	c *certifier.Certifier
}

func (l localCert) Certify(origin int, txnID, snapshot uint64, ws *writeset.WriteSet, sc dtrace.SpanContext) (certifier.Decision, error) {
	return l.c.CertifyCtx(origin, txnID, snapshot, ws, sc)
}
func (l localCert) Subscribe(id int) RefreshSource           { return l.c.Subscribe(id) }
func (l localCert) Unsubscribe(id int)                       { l.c.Unsubscribe(id) }
func (l localCert) Applied(id int, v uint64)                 { l.c.Applied(id, v) }
func (l localCert) History(after uint64) []certifier.Refresh { return l.c.History(after) }

// Local wraps an in-process certifier as a CertService.
func Local(c *certifier.Certifier) CertService { return localCert{c: c} }

// Config holds replica construction parameters.
type Config struct {
	ID int
	// EarlyCert enables early certification (on by default in the
	// paper's prototype; the ablation bench turns it off).
	EarlyCert bool
	// Latency is the simulated cost source for this replica. Nil means
	// no injected delays.
	Latency *latency.Source
	// DBSlots is the embedded DBMS's execution concurrency: statement
	// execution, local commits, and refresh application contend for
	// these slots, exactly as they contend for the standalone DBMS's
	// resources in the paper's testbed (dual-core servers → default 2).
	// The contention is what makes busy replicas lag — the effect the
	// eager mode's slowest-replica wait amplifies and the lazy modes'
	// least-loaded routing sidesteps.
	DBSlots int
}

// Replica is one proxy + DBMS pair.
type Replica struct {
	cfg Config
	// eng is the MVCC engine. It is a pointer slot, not a plain field,
	// because disk-restart recovery (RecoverFrom) swaps in the engine
	// rebuilt from checkpoint + WAL while stale goroutines from the
	// crashed incarnation may still be reading it.
	eng  atomic.Pointer[storage.Engine]
	cert CertService
	lat  *latency.Source

	mu   sync.Mutex
	cond *sync.Cond
	// dur is the durable backend: every applied run — refresh batches
	// and local commits alike — is reported to it after the engine
	// apply. Captured under mu so a batch in flight across a crash
	// keeps logging to the store it started with (which a disk restart
	// has abandoned — those appends no-op) rather than corrupting the
	// replacement's sequencing.
	// guarded by mu
	dur storage.Backend
	// sub is the live certifier subscription.
	// guarded by mu
	sub RefreshSource
	// reorder buffers out-of-order refreshes by version.
	// guarded by mu
	reorder map[uint64]certifier.Refresh
	// applying is the batch the drainer is currently group-applying.
	// Entries leave the reorder buffer before they reach the engine, so
	// statement-side early certification must scan this window too or a
	// write racing the apply would miss a certain conflict.
	// guarded by mu
	applying []certifier.Refresh
	// committing marks versions owned by in-flight local commits so
	// the applier does not wait for a refresh that will never arrive.
	// guarded by mu
	committing map[uint64]bool
	// actives indexes in-flight client transactions by id.
	// guarded by mu
	actives map[uint64]*Txn
	// crashed marks the replica detached.
	// guarded by mu
	crashed bool
	// applierGen invalidates stale applier/drainer goroutines.
	// guarded by mu
	applierGen int
	// minServe is the recovery catch-up floor: the highest version the
	// certifier had assigned when this replica last recovered. Commits
	// up to it may already be acknowledged to clients, so transactions
	// — even ESC ones, whose MinVersion is 0 — must not start below it.
	// guarded by mu
	minServe uint64
	// globalThrough is the certifier's latest global-commit notice; eager
	// commits wait on cond for it to reach their version.
	// guarded by mu
	globalThrough uint64

	// wssBuf recycles the per-batch writeset slice. The applying window
	// (at most one batch is inside the engine at a time) serializes it:
	// built under mu while the window is empty, used until the batch
	// completes.
	wssBuf []*writeset.WriteSet

	slots chan struct{}

	nextTxnID atomic.Uint64
	active    atomic.Int64
	// appliedRefreshes counts refresh transactions committed, for
	// observability and tests.
	appliedRefreshes atomic.Int64
	// obs is the live-observability state; nil (one atomic load on hot
	// paths) until EnableObs.
	obs atomic.Pointer[obsState]
	// tracer mints distributed-tracing spans; nil (one atomic load and
	// a nil check on hot paths) until EnableTracing.
	tracer atomic.Pointer[dtrace.Tracer]
	// finished observes each finished transaction's timeline; nil until
	// OnFinish.
	finished atomic.Pointer[func(tl metrics.Timeline, committed, readOnly bool)]
	// arrived timestamps reorder-buffer entries for the wait histogram.
	// Populated only while obs is enabled.
	// guarded by mu
	arrived map[uint64]time.Time
}

// EnableTracing attaches the distributed tracer: transactions then
// record replica.txn/replica.exec/replica.commit spans and refresh
// applies record refresh.apply spans parented under the certification
// that shipped them. Call before traffic; a nil store disables again.
func (r *Replica) EnableTracing(tr *dtrace.Tracer) { r.tracer.Store(tr) }

// OnFinish installs fn as the finished-transaction hook: it is called
// once per transaction begun here, committed or not, with its stopped
// stage timeline. The cluster layer builds Figure 4's stage means, the
// sync-delay series and the per-mode read-start-delay histogram from it
// — what a stage means for consistency depends on the mode, which the
// replica does not know. Call before traffic; nil disables.
func (r *Replica) OnFinish(fn func(tl metrics.Timeline, committed, readOnly bool)) {
	if fn == nil {
		r.finished.Store(nil)
		return
	}
	r.finished.Store(&fn)
}

// New creates a replica around an existing engine (already loaded with
// the initial database) and attaches it to the certification service.
// Durability is the paper's default: none — a restarted replica
// rebuilds from the certifier's history.
func New(cfg Config, eng *storage.Engine, cert CertService) *Replica {
	return newReplica(cfg, storage.MemBackend{Eng: eng}, cert)
}

// NewWithBackend creates a replica around a pluggable storage backend.
// The engine comes from the backend — typically already recovered from
// checkpoint + WAL — and every applied run is logged back to it, so a
// future restart replays only the history suffix the backend missed.
func NewWithBackend(cfg Config, b storage.Backend, cert CertService) *Replica {
	return newReplica(cfg, b, cert)
}

func newReplica(cfg Config, b storage.Backend, cert CertService) *Replica {
	if cfg.DBSlots <= 0 {
		cfg.DBSlots = 2
	}
	r := &Replica{
		cfg:        cfg,
		dur:        b,
		cert:       cert,
		lat:        cfg.Latency,
		reorder:    make(map[uint64]certifier.Refresh),
		committing: make(map[uint64]bool),
		actives:    make(map[uint64]*Txn),
		slots:      make(chan struct{}, cfg.DBSlots),
		arrived:    make(map[uint64]time.Time),
	}
	r.eng.Store(b.Engine())
	r.cond = sync.NewCond(&r.mu)
	r.attach()
	return r
}

// engine returns the current MVCC engine. The slot is swapped only by
// RecoverFrom, and only while the replica is crashed.
func (r *Replica) engine() *storage.Engine { return r.eng.Load() }

// withSlot runs fn holding one DBMS execution slot. Callers must not
// hold r.mu.
func (r *Replica) withSlot(fn func()) {
	r.slots <- struct{}{}
	fn()
	<-r.slots
}

// ID returns the replica's identifier.
func (r *Replica) ID() int { return r.cfg.ID }

// Engine exposes the embedded storage engine (tests, data loading).
func (r *Replica) Engine() *storage.Engine { return r.engine() }

// Version returns the replica's Vlocal.
func (r *Replica) Version() uint64 { return r.engine().Version() }

// Active returns the number of in-flight client transactions — the
// load balancer's routing signal.
func (r *Replica) Active() int { return int(r.active.Load()) }

// AppliedRefreshes returns how many refresh transactions this replica
// has committed.
func (r *Replica) AppliedRefreshes() int64 { return r.appliedRefreshes.Load() }

// attach subscribes to the certifier and starts the refresh applier
// and drainer, the two goroutines of an attachment. Caller must not
// hold r.mu.
func (r *Replica) attach() {
	r.mu.Lock()
	r.sub = r.cert.Subscribe(r.cfg.ID)
	r.crashed = false
	r.applierGen++
	gen := r.applierGen
	sub := r.sub
	r.mu.Unlock()
	go r.applier(sub, gen)
	go r.drainer(gen)
}

// applier receives refresh batches from the certifier, performs the
// refresh side of early certification, stores them in the reorder
// buffer, and wakes the drainer. Reception is deliberately cheap: the
// paper's proxy queues refresh writesets as they arrive and applies
// them sequentially in the background.
func (r *Replica) applier(sub RefreshSource, gen int) {
	for {
		batch, ok := sub.Take()
		if !ok {
			return
		}
		r.mu.Lock()
		if r.applierGen != gen {
			r.mu.Unlock()
			return
		}
		o := r.obs.Load()
		for _, ref := range batch {
			if ref.Version == 0 { // global-commit notice
				r.globalThrough = max(r.globalThrough, ref.GlobalThrough)
				continue
			}
			// A nil writeset is a skip marker: the version committed
			// entirely on shards this replica does not subscribe to.
			// Substitute an empty writeset so the whole apply path —
			// reorder, batching, durability logging, acks — advances the
			// version without touching a row.
			if ref.WS == nil {
				ref.WS = &writeset.WriteSet{}
			}
			if ref.Version > r.engine().Version() {
				r.reorder[ref.Version] = ref
				if o != nil {
					r.arrived[ref.Version] = time.Now()
				}
			}
			if r.cfg.EarlyCert {
				r.abortConflictingActivesLocked(ref.WS)
			}
		}
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// drainer sequentially applies queued refresh transactions in
// certifier order — the proxy's refresh handler. It competes for DBMS
// slots with client statements, so a replica busy serving queries
// falls behind, exactly like the paper's standalone DBMS.
func (r *Replica) drainer(gen int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.crashed || r.applierGen != gen {
			return
		}
		if !r.applyReadyLocked() {
			r.cond.Wait()
		}
	}
}

// abortConflictingActivesLocked marks active local update transactions
// whose partial writesets conflict with an incoming refresh.
func (r *Replica) abortConflictingActivesLocked(ws *writeset.WriteSet) {
	for _, tx := range r.actives {
		if tx.partial != nil && !tx.killed && tx.partial.ConflictsWith(ws) {
			tx.killed = true
		}
	}
}

// maxApplyBatch bounds one group-applied refresh batch. Larger batches
// amortize the apply cost further, but a batch publishes only at its
// tail (applyBatch), so a transaction waiting for a mid-batch version
// waits for the whole batch; an unbounded batch on a deep backlog would
// erase the fine-grained mode's start-delay advantage over the coarse
// one. Same trade-off, and same fix, as bounding a group commit.
const maxApplyBatch = 8

// applyReadyLocked group-applies reorder-buffer entries contiguous
// with Vlocal and reports whether it applied anything. Each round
// coalesces the longest run of queued refreshes — stopping at a
// version owned by an in-flight local commit, and bounded by
// maxApplyBatch — into ONE batch applied by applyBatch under a
// single DBMS slot, with one amortized latency charge, one coalesced
// apply acknowledgment, and one broadcast. Versions publish in order,
// so no version is observable before its predecessors and Vlocal stays
// monotonic.
//
// r.mu is temporarily released around the (slow) apply itself so
// statements on other transactions proceed concurrently; entries are
// removed from the reorder buffer under the lock (and parked in
// r.applying for early certification), so concurrent callers never
// double-apply.
func (r *Replica) applyReadyLocked() bool {
	progress := false
	for {
		// At most one batch may be inside the engine at a time. Without
		// this guard a recovery backfill could start applying while the
		// previous generation's drainer still has a batch in flight
		// (Crash does not wait for it), and the loser of that race would
		// see ErrBadVersion — a double apply. The in-flight batch
		// broadcasts when it completes, re-waking this caller.
		if len(r.applying) > 0 {
			return progress
		}
		start := r.engine().Version() + 1
		// Pre-size to the group bound (capped by what is buffered): the
		// batch escapes into r.applying, so growth by append would pay
		// log2(n) reallocations per drained backlog.
		batch := make([]certifier.Refresh, 0, min(maxApplyBatch, len(r.reorder)))
		for v := start; ; v++ {
			if r.committing[v] {
				break // a local commit owns this version
			}
			ref, ok := r.reorder[v]
			if !ok {
				break
			}
			delete(r.reorder, v)
			batch = append(batch, ref)
			if len(batch) >= maxApplyBatch {
				break
			}
		}
		if len(batch) == 0 {
			// Nothing contiguous is left, so the drainer is about to sleep:
			// drop entries a completed batch has already covered. A refresh
			// or a history backfill admitted against a pre-apply Vlocal can
			// land below the published tail and would otherwise pin its
			// writeset in the reorder buffer forever. Sweeping here and not
			// per batch keeps a deep backlog's drain linear in its depth.
			for v := range r.reorder {
				if v < start {
					delete(r.reorder, v)
					delete(r.arrived, v)
				}
			}
			return progress
		}
		if o := r.obs.Load(); o != nil {
			now := time.Now()
			for i := range batch {
				if at, ok := r.arrived[batch[i].Version]; ok {
					o.reorderWait.Observe(now.Sub(at))
					delete(r.arrived, batch[i].Version)
				}
			}
			o.applyBatch.ObserveValue(float64(len(batch)))
		}
		wss := r.wssBuf[:0]
		for i := range batch {
			wss = append(wss, batch[i].WS)
		}
		r.wssBuf = wss[:0]
		last := batch[len(batch)-1].Version
		var spans []*dtrace.ActiveSpan
		if tr := r.tracer.Load(); tr != nil {
			spans = r.startApplySpans(tr, batch)
		}
		dur := r.dur
		r.applying = batch
		r.mu.Unlock()
		var err error
		r.withSlot(func() {
			if r.lat != nil {
				r.lat.ApplyWriteSetBatch(len(batch))
			}
			err = r.applyBatch(wss, start)
		})
		if err == nil {
			// Durable logging is non-forced and advisory (the certifier
			// is the durability authority; a lost tail is backfilled on
			// recovery), so it runs outside r.mu and after the engine
			// apply. wss stays ours until r.applying clears: the backend
			// copies anything it parks.
			_ = dur.LogApplied(wss, start)
			// The commit notification (eager accounting, §IV-D), one per
			// batch and cumulative. Nothing on it waits for I/O:
			// CertClient.Applied raises a version and wakes its stream's
			// writer, and the in-process Certifier.Applied returns at once
			// unless it is eager. A batch that was in flight across a crash
			// acks too, and truly: its versions are applied, if perhaps to
			// an engine a disk restart has since replaced. That ack clears
			// waits at or below last only: those versions were certified
			// before the crash, and Unsubscribe already cleared this
			// replica from their waits, so it cannot end a wait for a
			// version certified after a resubscription.
			r.cert.Applied(r.cfg.ID, last)
		}
		r.mu.Lock()
		r.applying = nil
		for _, sp := range spans {
			sp.End()
		}
		if err != nil {
			// Ordering is enforced by construction; an apply failure
			// here means state divergence, which must be loud.
			panic(fmt.Sprintf("replica %d: refresh apply at %d..%d: %v", r.cfg.ID, start, last, err))
		}
		progress = true
		r.cond.Broadcast()
	}
}

// applyBatch installs the group-applied batch wss at versions start,
// start+1, … and publishes its tail, on the caller's goroutine — the
// paper's replica applies refresh writesets one after another in
// certifier order. It counts before it publishes: once a version is
// visible, every refresh at or below it is in AppliedRefreshes — the
// order the ordering tests and convergence waiters observe.
//
// The publish does NOT broadcast r.cond: snapshot reads observe the
// published watermark directly through Begin (no wait involved), and
// version waiters (commit sync, tests) are woken by the caller's
// broadcast under r.mu after the batch completes. Broadcasting per
// publish as well was measured to cost more than the installs
// themselves (a wakeup storm of r.mu acquisitions).
//
// An install error leaves the watermark where it was; the caller treats
// it as divergence. The caller must hold the r.applying window (at most
// one batch inside the engine) and must NOT hold r.mu.
func (r *Replica) applyBatch(wss []*writeset.WriteSet, start uint64) error {
	eng := r.engine()
	// The applying window and the commit slot protocol make this batch
	// the engine's only writer, so the check cannot race — it turns an
	// ordering bug into a loud error whatever the schedule.
	if v := eng.Version(); start != v+1 {
		return fmt.Errorf("%w: engine at %d, refresh batch starts at %d", storage.ErrBadVersion, v, start)
	}
	if err := eng.InstallWriteSets(wss, start); err != nil {
		return fmt.Errorf("refresh apply at %d: %w", start, err)
	}
	r.appliedRefreshes.Add(int64(len(wss)))
	eng.PublishVersion(start + uint64(len(wss)) - 1)
	return nil
}

// startApplySpans mints one refresh.apply span per coalesced commit,
// each parented under the certification that shipped it and linked to
// the other members of the group-applied batch. Kept out of the apply
// loop so the untraced hot path does not carry this body's code.
func (r *Replica) startApplySpans(tr *dtrace.Tracer, batch []certifier.Refresh) []*dtrace.ActiveSpan {
	spans := make([]*dtrace.ActiveSpan, len(batch))
	id := strconv.Itoa(r.cfg.ID)
	size := strconv.Itoa(len(batch))
	for i := range batch {
		parent := dtrace.SpanContext{}
		if ws := batch[i].WS; ws != nil && ws.Trace != nil {
			parent = *ws.Trace
		}
		sp := tr.StartSpan("refresh.apply", parent)
		sp.SetAttr("replica", id)
		sp.SetAttr("batch", size)
		sp.SetAttr("version", strconv.FormatUint(batch[i].Version, 10))
		for j := range batch {
			if j != i && batch[j].WS != nil && batch[j].WS.Trace != nil {
				sp.Link(*batch[j].WS.Trace)
			}
		}
		spans[i] = sp
	}
	return spans
}

// WaitVersion blocks until Vlocal ≥ v (the synchronization start
// delay) or the replica crashes.
func (r *Replica) WaitVersion(v uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.engine().Version() < v {
		if r.crashed {
			return ErrCrashed
		}
		r.cond.Wait()
	}
	return nil
}

// Txn is one client transaction executing on this replica.
type Txn struct {
	r   *Replica
	id  uint64
	stx *storage.Txn
	// stages is the transaction's one clock: enter writes it at every
	// stage boundary and abortInternal stops it, after which Figure 4,
	// the trace recorder and the sync-delay histograms read it.
	stages metrics.Timeline
	killed bool // set by early certification, and by Crash
	// crashKilled marks a kill that came from Crash rather than from
	// early certification.
	crashKilled bool
	done        bool
	// committed/readOnly/commitVersion feed the trace recorder;
	// committed stays false (recorded as abort) unless Commit succeeds.
	committed     bool
	readOnly      bool
	commitVersion uint64
	partial       *writeset.WriteSet // updated after each write statement
	// touched accumulates the table-sets of executed statements — the
	// transaction's observed read set, reported to the history checker.
	touched map[string]bool
	// roCommit and roTouched cache ReadOnlyCommit's answer; roCommit is
	// unset (not ReadOnly) until built and again once a statement has
	// touched a table they do not cover.
	roCommit  CommitResult
	roTouched []string
	// span is the transaction's replica.txn span (nil when tracing is
	// off); ended in abortInternal, the single finalization point.
	// waits is the span the wait spans hang under — span, then
	// replica.commit — and wait the open one, if any.
	span, waits, wait *dtrace.ActiveSpan
}

// outcome names how the transaction ended, as traces and spans record it.
func (t *Txn) outcome() string {
	if t.committed {
		return "commit"
	}
	return "abort"
}

// Stages returns the transaction's stage timeline, complete once the
// transaction has finished.
func (t *Txn) Stages() metrics.Timeline { return t.stages }

// waitSpans names the span that covers each stage spent waiting.
var waitSpans = [...]string{
	metrics.StageVersion: "replica.version_wait",
	metrics.StageSync:    "replica.sync_wait",
	metrics.StageGlobal:  "replica.global_wait",
}

// enter crosses a stage boundary: the stage being left ends on the
// timeline and s begins, and with a tracer attached so do their wait
// spans.
func (t *Txn) enter(s metrics.Stage) {
	t.stages.Enter(s)
	t.wait.End()
	t.wait = nil
	if name := waitSpans[s]; name != "" {
		t.wait = t.r.tracer.Load().StartSpan(name, t.waits.Context())
	}
}

// leave is the last boundary: the timeline stops.
func (t *Txn) leave() {
	t.stages.Stop()
	t.wait.End()
}

// Begin starts a client transaction once the replica has reached
// minVersion; the Version stage covers the wait. parent, when non-nil,
// is the caller's span context: the transaction's replica.txn span is
// recorded under it.
func (r *Replica) Begin(minVersion uint64, parent *dtrace.SpanContext) (*Txn, error) {
	tx := &Txn{r: r, id: r.nextTxnID.Add(1), touched: make(map[string]bool)}
	if tr := r.tracer.Load(); tr != nil {
		var sc dtrace.SpanContext
		if parent != nil {
			sc = *parent
		}
		tx.span = tr.StartSpan("replica.txn", sc)
		tx.waits = tx.span
	}
	tx.enter(metrics.StageVersion)
	r.mu.Lock()
	if r.minServe > minVersion {
		minVersion = r.minServe
	}
	r.mu.Unlock()
	if tx.span != nil {
		tx.span.SetAttr("replica", strconv.Itoa(r.cfg.ID))
		tx.span.SetAttr("min_version", strconv.FormatUint(minVersion, 10))
	}
	err := r.WaitVersion(minVersion)
	if err == nil {
		r.mu.Lock()
		if r.crashed {
			err = ErrCrashed
		} else {
			tx.stx = r.engine().Begin()
			r.actives[tx.id] = tx
		}
		r.mu.Unlock()
	}
	if err != nil {
		tx.leave()
		tx.span.SetAttr("outcome", "crashed")
		tx.span.End()
		return nil, err
	}
	r.active.Add(1)
	tx.enter(metrics.StageQueries)
	delay := tx.stages.Stage(metrics.StageVersion)
	if o := r.obs.Load(); o != nil {
		o.syncDelay.Observe(delay)
	}
	return tx, nil
}

// Snapshot returns the version this transaction reads.
func (t *Txn) Snapshot() uint64 { return t.stx.Snapshot() }

// Touched returns the tables accessed by executed statements so far
// (reads and writes).
func (t *Txn) Touched() []string {
	out := make([]string, 0, len(t.touched))
	for tab := range t.touched {
		out = append(out, tab)
	}
	return out
}

// touch adds a statement's table-set to the observed read set.
func (t *Txn) touch(tables []string) {
	for _, tab := range tables {
		if !t.touched[tab] {
			t.touched[tab] = true
			t.roCommit = CommitResult{}
		}
	}
}

// ReadOnlyCommit returns what Commit would return now, and Touched, for
// a transaction that has buffered no write; ok is false for one that
// has. Such a commit is local (§IV), so its outcome is known as soon as
// the last statement is: the wire layer reports it with every statement
// and a read-only commit needs no answer. Table versions read now bound
// what the snapshot can have observed at least as tightly as at commit
// time: every version at or below the snapshot was installed before it
// was taken. The returned values are shared with later calls and must
// not be modified.
func (t *Txn) ReadOnlyCommit() (res CommitResult, touched []string, ok bool) {
	if !t.stx.ReadOnly() {
		return CommitResult{}, nil, false
	}
	if !t.roCommit.ReadOnly {
		snap := t.stx.Snapshot()
		t.roTouched = t.Touched()
		t.roCommit = CommitResult{Version: snap, ReadOnly: true, TableVersions: t.r.engine().TableVersionsAt(t.roTouched, snap)}
	}
	return t.roCommit, t.roTouched, true
}

// checkAlive returns the error state of the transaction, if any. A
// transaction that early certification killed is over with the first
// operation that finds out, whichever it is.
func (t *Txn) checkAlive() error {
	t.r.mu.Lock()
	done, killed, crashed := t.done, t.killed, t.r.crashed
	t.r.mu.Unlock()
	switch {
	case done:
		return ErrTxnDone
	case killed:
		t.abortInternal()
		return ErrEarlyAbort
	case crashed:
		return ErrCrashed
	default:
		return nil
	}
}

// Exec runs one prepared statement. Early certification runs after
// write statements.
func (t *Txn) Exec(p *sql.Prepared, params ...any) (*sql.Result, error) {
	if err := t.checkAlive(); err != nil {
		return nil, err
	}
	sp := t.r.tracer.Load().StartSpan("replica.exec", t.span.Context())
	var res *sql.Result
	var err error
	t.r.withSlot(func() {
		if t.r.lat != nil {
			t.r.lat.Statement()
		}
		res, err = p.Exec(t.stx, t.r.engine(), params...)
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	t.touch(p.TableSet)
	if !p.ReadOnly {
		if err := t.afterWrite(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// afterWrite refreshes the partial writeset and, when enabled, checks
// it against pending refreshes (statement-side early certification).
// "Pending" covers both refreshes still queued in the certifier
// mailbox and those sitting in the reorder buffer awaiting their turn.
func (t *Txn) afterWrite() error {
	ws := t.stx.WriteSet()
	r := t.r
	r.mu.Lock()
	t.partial = ws
	killed := t.killed
	var sub RefreshSource
	if r.cfg.EarlyCert && !killed {
		// A refresh at or below this transaction's snapshot committed
		// before it began and cannot fail its certification — aborting on
		// it would be a spurious kill, not an early detection. Both scans
		// exempt those: a reorder entry goes stale when a duplicate (a
		// reconnect, a history backfill) arrives while its version is in
		// the in-flight batch, and stays until the drainer idles; and
		// applyBatch publishes the in-flight batch before the drainer
		// retakes r.mu to clear r.applying.
		snap := t.stx.Snapshot()
		for _, ref := range r.reorder {
			if ref.Version > snap && ref.WS.ConflictsWith(ws) {
				killed = true
				t.killed = true
				break
			}
		}
		// The drainer's in-flight batch left the reorder buffer but is
		// not yet applied; each of its writesets must still be checked
		// individually.
		if !killed {
			for i := range r.applying {
				if r.applying[i].Version > snap && r.applying[i].WS.ConflictsWith(ws) {
					killed = true
					t.killed = true
					break
				}
			}
		}
		sub = r.sub
	}
	r.mu.Unlock()
	if killed {
		t.abortInternal()
		return ErrEarlyAbort
	}
	if sub == nil {
		return nil
	}
	for _, pending := range sub.Pending() {
		if pending.WS.ConflictsWith(ws) {
			t.abortInternal()
			return ErrEarlyAbort
		}
	}
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	t.abortInternal()
}

func (t *Txn) abortInternal() {
	t.r.mu.Lock()
	if t.done {
		t.r.mu.Unlock()
		return
	}
	t.done = true
	early := t.killed && !t.crashKilled
	delete(t.r.actives, t.id)
	t.r.mu.Unlock()
	t.stx.Abort()
	t.r.active.Add(-1)
	t.leave()
	if o := t.r.obs.Load(); o != nil {
		o.finish(t, early)
	}
	if fn := t.r.finished.Load(); fn != nil {
		(*fn)(t.stages, t.committed, t.readOnly)
	}
	if t.span != nil {
		t.span.SetAttr("outcome", t.outcome())
		if t.commitVersion != 0 {
			t.span.SetAttr("version", strconv.FormatUint(t.commitVersion, 10))
		}
		t.span.End()
	}
}

// CommitResult describes a successful commit.
type CommitResult struct {
	// Version is the commit version for updates, or the snapshot
	// version for read-only transactions (what the client observed).
	Version uint64
	// ReadOnly reports whether the transaction was read-only.
	ReadOnly bool
	// WrittenTables lists the tables in the writeset (empty for
	// read-only) — the load balancer updates Vt from these.
	WrittenTables []string
	// TableVersions bounds, per touched table, the newest write this
	// transaction can have observed (written tables report the commit
	// version itself). The load balancer folds these into the session's
	// per-table floors — the fine-grained session bound that lets a
	// later transaction on a cold table start immediately while still
	// never regressing below anything this one saw.
	TableVersions map[string]uint64
}

// Commit finishes the transaction. Read-only transactions commit
// locally and immediately; update transactions are certified, then
// committed at their assigned version in global order, and — under
// eager — held until every replica has applied them.
func (t *Txn) Commit(eager bool) (CommitResult, error) {
	if err := t.checkAlive(); err != nil {
		return CommitResult{}, err
	}
	commitSpan := t.r.tracer.Load().StartSpan("replica.commit", t.span.Context())
	defer commitSpan.End()
	t.waits = commitSpan
	if res, _, ok := t.ReadOnlyCommit(); ok {
		commitSpan.SetAttr("read_only", "true")
		// Read-only: local commit, no certification (§IV).
		t.enter(metrics.StageCommit)
		t.r.withSlot(func() {
			if t.r.lat != nil {
				t.r.lat.LocalCommit()
			}
		})
		t.committed, t.commitVersion, t.readOnly = true, res.Version, true
		t.abortInternal() // releases the storage txn; nothing to apply
		return res, nil
	}
	ws := t.stx.WriteSet()
	r := t.r
	if eager {
		r.mu.Lock()
		sub := r.sub
		r.mu.Unlock()
		if g, ok := sub.(globalTracker); !ok || !g.GlobalTracked() {
			t.abortInternal()
			return CommitResult{}, ErrNotEager
		}
	}

	// Certification round trip.
	t.enter(metrics.StageCertify)
	dec, err := t.r.cert.Certify(t.r.cfg.ID, t.id, t.stx.Snapshot(), ws, commitSpan.Context())
	if err != nil {
		t.abortInternal()
		return CommitResult{}, err
	}
	if !dec.Commit {
		if o := t.r.obs.Load(); o != nil {
			o.certConflicts.Inc()
		}
		t.abortInternal()
		return CommitResult{}, ErrCertifyConflict
	}

	// Claim our version slot so the applier will not wait for a
	// refresh at dec.Version, then wait for all predecessors.
	t.enter(metrics.StageSync)
	r.mu.Lock()
	r.committing[dec.Version] = true
	r.cond.Broadcast() // let the drainer re-evaluate its stop condition
	appliedAsRefresh := false
	for {
		if r.crashed {
			delete(r.committing, dec.Version)
			r.mu.Unlock()
			t.abortInternal()
			return CommitResult{}, ErrCrashed
		}
		// A resubscribe backfill replays certifier history, which
		// includes this replica's OWN commits: if the claim above lost
		// the race with the drainer, our writeset — identical content,
		// straight from the certifier — is already installed (or is
		// inside the in-flight batch). Committing it again would be a
		// double apply, so adopt the refresh as our commit instead.
		if r.engine().Version() >= dec.Version {
			appliedAsRefresh = true
			break
		}
		covered := len(r.applying) > 0 && r.applying[len(r.applying)-1].Version >= dec.Version
		if r.engine().Version() == dec.Version-1 && !covered {
			break // our turn: predecessors applied, our slot is free
		}
		r.cond.Wait()
	}
	r.mu.Unlock()

	// Local commit at the assigned version.
	t.enter(metrics.StageCommit)
	if !appliedAsRefresh {
		var commitErr error
		r.withSlot(func() {
			if r.lat != nil {
				r.lat.LocalCommit()
			}
			commitErr = r.engine().ApplyWriteSet(ws, dec.Version)
		})
		if commitErr != nil {
			// The slot was claimed and predecessors applied; failure here
			// is a protocol bug, not a runtime condition.
			panic(fmt.Sprintf("replica %d: local commit at %d: %v", r.cfg.ID, dec.Version, commitErr))
		}
	}
	r.mu.Lock()
	delete(r.committing, dec.Version)
	dur := r.dur
	// Wake the drainer: refreshes may have queued up behind our slot.
	r.cond.Broadcast()
	r.mu.Unlock()
	if !appliedAsRefresh {
		// A writeset adopted as a refresh is logged by the drainer; one
		// we committed ourselves is ours to log. This run may race the
		// drainer's around it — sequencing is the backend's job.
		_ = dur.LogApplied([]*writeset.WriteSet{ws}, dec.Version)
	}

	// Eager strong consistency: hold the acknowledgment until every
	// replica has applied the writeset (global commit delay). The
	// certifier collects per-replica commit notifications and then
	// notifies the origin down its subscription — one more round trip on
	// top of the slowest replica's apply (§IV-D). A crash ends the wait;
	// the commit stands.
	if eager {
		t.enter(metrics.StageGlobal)
		r.mu.Lock()
		for r.globalThrough < dec.Version && !r.crashed {
			r.cond.Wait()
		}
		crashed := r.globalThrough < dec.Version
		r.mu.Unlock()
		if crashed {
			t.abortInternal()
			return CommitResult{}, ErrCrashed
		}
	}

	tv := r.engine().TableVersionsAt(t.Touched(), t.stx.Snapshot())
	for _, tab := range ws.Tables() {
		tv[tab] = dec.Version
	}
	res := CommitResult{Version: dec.Version, WrittenTables: ws.Tables(), TableVersions: tv}
	t.committed, t.commitVersion = true, dec.Version
	t.abortInternal() // storage txn state is no longer needed
	return res, nil
}

// Crash detaches the replica: the applier stops, active transactions
// fail, and no new transactions start. Durable state (the engine) is
// retained, matching the crash-recovery failure model.
func (r *Replica) Crash() {
	r.mu.Lock()
	if r.crashed {
		r.mu.Unlock()
		return
	}
	r.crashed = true
	r.applierGen++ // invalidate the running applier
	for _, tx := range r.actives {
		if !tx.killed {
			tx.killed, tx.crashKilled = true, true
		}
	}
	r.reorder = make(map[uint64]certifier.Refresh)
	r.committing = make(map[uint64]bool)
	r.arrived = make(map[uint64]time.Time)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.cert.Unsubscribe(r.cfg.ID)
}

// Recover reattaches a crashed replica: it resubscribes, replays the
// certifier history it missed, and resumes applying new refreshes.
func (r *Replica) Recover() error {
	r.mu.Lock()
	if !r.crashed {
		r.mu.Unlock()
		return errors.New("replica: Recover on a live replica")
	}
	r.mu.Unlock()

	// Subscribe first so no refresh is missed, then backfill from
	// history; the reorder buffer deduplicates overlap by version.
	r.attach()
	engV := r.engine().Version()
	r.mu.Lock()
	// Crash discards applied-but-unlogged runs from the replica's
	// buffers; realign the durable log so it does not park every future
	// run behind versions that will never be logged again.
	r.dur.Realign(engV + 1)
	r.mu.Unlock()
	// History is paged (at most certifier.MaxHistoryBatch per call):
	// loop until an empty page, applying each page before fetching the
	// next so backfill memory stays bounded. Versions certified after
	// the subscription above arrive on the live stream.
	after := engV
	for first := true; ; first = false {
		missed := r.cert.History(after)
		if len(missed) == 0 {
			break
		}
		if first && missed[0].Version > engV+1 {
			// The certifier trimmed its history above our restore point:
			// versions in (engV, missed[0].Version) are gone and can never
			// be applied here. Serving anyway would be silent divergence —
			// fail loudly and stay crashed.
			r.Crash()
			return fmt.Errorf("replica %d: recovery needs history from version %d but the certifier's starts at %d (trimmed below our restore point)",
				r.cfg.ID, engV+1, missed[0].Version)
		}
		after = missed[len(missed)-1].Version
		r.mu.Lock()
		for _, ref := range missed {
			if ref.WS == nil { // skip marker, see applier
				ref.WS = &writeset.WriteSet{}
			}
			if ref.Version > r.engine().Version() {
				r.reorder[ref.Version] = ref
			}
			// Every replayed version was certified — and possibly
			// acknowledged — while this replica was down; raise the serve
			// floor so no transaction reads below it.
			if ref.Version > r.minServe {
				r.minServe = ref.Version
			}
		}
		r.applyReadyLocked()
		r.mu.Unlock()
	}
	return nil
}

// RecoverFrom reattaches a crashed replica around a replacement
// backend — the disk-restart path. The process died (the old backend
// was abandoned mid-write, kill -9 style), a new backend was recovered
// from its checkpoint + WAL suffix, and the replica resumes from the
// recovered Vlocal: the certifier backfills only the history suffix
// the durable state missed.
func (r *Replica) RecoverFrom(b storage.Backend) error {
	r.mu.Lock()
	if !r.crashed {
		r.mu.Unlock()
		return errors.New("replica: RecoverFrom on a live replica")
	}
	r.eng.Store(b.Engine())
	r.dur = b
	r.mu.Unlock()
	return r.Recover()
}

// Crashed reports whether the replica is currently detached.
func (r *Replica) Crashed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashed
}
