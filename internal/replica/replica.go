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
//     (resubscribe from Vlocal: the subscription backfills what it
//     missed).
package replica

import (
	"errors"
	"fmt"
	"slices"
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
	// ErrStartTimeout refuses a begin whose start version the replica
	// did not reach within the caller's bound (BeginWithin). Nothing
	// was started.
	ErrStartTimeout = errors.New("replica: start version not reached in time")
)

// CertService is the certifier as seen by a replica: local
// (certifier.Certifier via Local) or remote (wire.CertClient).
type CertService interface {
	// Certify submits an update transaction's writeset for
	// certification. sc is the commit span's context (zero when
	// tracing is off); remote implementations ship it on the wire.
	Certify(origin int, txnID, snapshot uint64, ws *writeset.WriteSet, sc dtrace.SpanContext) (certifier.Decision, error)
	// Subscribe attaches the replica to the refresh stream from its
	// Vlocal: the source first delivers the versions the replica missed,
	// its own commits among them, then every later one.
	Subscribe(replicaID int) RefreshSource
	// Unsubscribe detaches it (crash).
	Unsubscribe(replicaID int)
	// Applied acknowledges that the replica applied every version up to
	// v. The drainer calls it once per applied batch, outside the
	// replica's lock, so it must not wait for I/O.
	Applied(replicaID int, v uint64)
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

// floored is implemented by a RefreshSource whose subscription has a
// floor: the certifier's version when it registered the subscriber.
// Every version up to it is in the subscription's backfill. Floor waits
// for the certifier's answer, and returns its refusal (such as a
// *certifier.TrimmedError) if it refused the subscription.
type floored interface {
	Floor() (uint64, error)
}

// floorOf waits for sub's floor; a source without one has floor 0.
func floorOf(sub RefreshSource) (uint64, error) {
	f, ok := sub.(floored)
	if !ok {
		return 0, nil
	}
	return f.Floor()
}

// localCert adapts *certifier.Certifier to CertService. vlocal reads
// the subscribing replica's Vlocal; newReplica sets it.
type localCert struct {
	c      *certifier.Certifier
	vlocal func() uint64
}

func (l localCert) Certify(origin int, txnID, snapshot uint64, ws *writeset.WriteSet, sc dtrace.SpanContext) (certifier.Decision, error) {
	return l.c.CertifyCtx(origin, txnID, snapshot, ws, sc)
}
func (l localCert) Unsubscribe(id int)       { l.c.Unsubscribe(id) }
func (l localCert) Applied(id int, v uint64) { l.c.Applied(id, v) }

func (l localCert) Subscribe(id int) RefreshSource {
	var after uint64
	if l.vlocal != nil {
		after = l.vlocal()
	}
	sub, err := l.c.Subscribe(id, nil, after)
	if err != nil {
		return refused{err}
	}
	return sub
}

// refused is the RefreshSource of a subscription the certifier refused:
// it delivers nothing, and its Floor is the refusal.
type refused struct{ err error }

func (refused) Take() ([]certifier.Refresh, bool) { return nil, false }
func (refused) Pending() []certifier.Refresh      { return nil }
func (refused) QueueLen() int                     { return 0 }
func (s refused) Floor() (uint64, error)          { return 0, s.err }

// Local wraps an in-process certifier as a CertService. Each replica
// built on it subscribes from its own Vlocal.
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
}

// dbSlots is the embedded DBMS's execution concurrency: statement
// execution, local commits, and refresh application contend for these
// slots, exactly as they contend for the standalone DBMS's resources in
// the paper's testbed (dual-core servers → 2). The contention is what
// makes busy replicas lag — the effect the eager mode's slowest-replica
// wait amplifies and the lazy modes' least-loaded routing sidesteps.
const dbSlots = 2

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
	// apply, inside the apply window. Captured under mu so a run in
	// flight across a crash keeps logging to the store it started with
	// (which a disk restart has abandoned — those appends no-op) rather
	// than to the replacement, whose log tail it does not extend.
	// guarded by mu
	dur storage.Backend
	// sub is the live certifier subscription.
	// guarded by mu
	sub RefreshSource
	// reorder buffers out-of-order refreshes by version.
	// guarded by mu
	reorder map[uint64]certifier.Refresh
	// applying is the run inside the apply window (applyLocked): the
	// drainer's refresh batch or a local commit's writeset. Refreshes
	// leave the reorder buffer before they reach the engine, so
	// statement-side early certification must scan this window too or a
	// write racing the apply would miss a certain conflict.
	// guarded by mu
	applying []certifier.Refresh
	// actives indexes in-flight client transactions by id.
	// guarded by mu
	actives map[uint64]*Txn
	// crashed marks the replica detached.
	// guarded by mu
	crashed bool
	// applierGen invalidates stale applier/drainer goroutines.
	// guarded by mu
	applierGen int
	// globalThrough is the certifier's latest global-commit notice; eager
	// commits wait on cond for it to reach their version.
	// guarded by mu
	globalThrough uint64

	// wssBuf recycles the per-run writeset slice. The apply window (at
	// most one run is inside the engine at a time) serializes it: built
	// under mu while the window is empty, used until the run completes.
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
// stage timeline. The cluster layer builds Figure 4's stage means and
// the sync-delay series from it — what a stage means for consistency
// depends on the mode, which the replica does not know. Call before
// traffic; nil disables.
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
	r := &Replica{
		cfg:     cfg,
		dur:     b,
		lat:     cfg.Latency,
		reorder: make(map[uint64]certifier.Refresh),
		actives: make(map[uint64]*Txn),
		slots:   make(chan struct{}, dbSlots),
		arrived: make(map[uint64]time.Time),
	}
	if l, ok := cert.(localCert); ok {
		l.vlocal = r.Version
		cert = l
	}
	r.cert = cert
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
// and drainer, the two goroutines of an attachment, and returns the
// subscription. Caller must not hold r.mu.
func (r *Replica) attach() RefreshSource {
	r.mu.Lock()
	r.sub = r.cert.Subscribe(r.cfg.ID)
	r.crashed = false
	r.applierGen++
	gen := r.applierGen
	sub := r.sub
	r.mu.Unlock()
	go r.applier(sub, gen)
	go r.drainer(gen)
	return sub
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
// coalesces the longest run of queued refreshes — stopping at the first
// missing version, such as one a local commit owns, and bounded by
// maxApplyBatch — into ONE batch applied through the apply window
// (applyLocked) under a single DBMS slot, with one amortized latency
// charge, one coalesced apply acknowledgment, and one broadcast.
// Versions publish in order, so no version is observable before its
// predecessors and Vlocal stays monotonic.
//
// Entries are removed from the reorder buffer under the lock (and
// held in r.applying for early certification), so concurrent callers
// never double-apply.
func (r *Replica) applyReadyLocked() bool {
	progress := false
	for {
		// At most one run may be inside the engine at a time. Without
		// this guard a recovery backfill could start applying while the
		// previous generation's drainer still has a batch in flight
		// (Crash does not wait for it), and the loser of that race would
		// see ErrBadVersion — a double apply. The run in flight
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
		var spans []*dtrace.ActiveSpan
		if tr := r.tracer.Load(); tr != nil {
			spans = r.startApplySpans(tr, batch)
		}
		r.applyLocked(batch, true)
		for _, sp := range spans {
			sp.End()
		}
		progress = true
	}
}

// applyLocked runs one run through the apply window, the one critical
// section for every install into the engine and the log append after
// it: the drainer's refresh batches (refresh) and a local commit's own
// writeset alike. Runs therefore install, publish and reach the durable
// log in version order, one at a time. The caller holds r.mu, has
// checked that the window is free, and hands over a run that starts at
// Vlocal+1; applyLocked releases r.mu for the install and log, and
// retakes it with the window free again and every waiter woken.
//
// The two callers differ only in what surrounds the body: a refresh
// batch is charged the amortized batch cost, counted in
// AppliedRefreshes and acknowledged to the certifier; a local commit is
// charged LocalCommit. An install or log error is state divergence —
// ordering is enforced by construction — and panics.
func (r *Replica) applyLocked(run []certifier.Refresh, refresh bool) {
	wss := r.wssBuf[:0]
	for i := range run {
		wss = append(wss, run[i].WS)
	}
	r.wssBuf = wss[:0]
	start, last := run[0].Version, run[len(run)-1].Version
	dur := r.dur
	r.applying = run
	r.mu.Unlock()
	var err error
	r.withSlot(func() {
		switch {
		case r.lat == nil:
		case refresh:
			r.lat.ApplyWriteSetBatch(len(run))
		default:
			r.lat.LocalCommit()
		}
		err = r.applyBatch(wss, start, refresh)
	})
	if err == nil {
		// Durable logging is non-forced (the certifier is the durability
		// authority; a lost tail is backfilled on recovery). It runs
		// outside r.mu, but inside the window, so the next run cannot
		// reach the log first.
		err = dur.LogApplied(wss, start)
	}
	if err == nil && refresh {
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
	if err != nil {
		panic(fmt.Sprintf("replica %d: apply at %d..%d: %v", r.cfg.ID, start, last, err))
	}
	r.cond.Broadcast()
}

// applyBatch installs the run wss at versions start, start+1, … and
// publishes its tail, on the caller's goroutine — the paper's replica
// commits writesets one after another in certifier order. A refresh
// run counts before it publishes: once a version is visible, every
// refresh at or below it is in AppliedRefreshes — the order the
// ordering tests and convergence waiters observe.
//
// The publish does NOT broadcast r.cond: snapshot reads observe the
// published watermark directly through Begin (no wait involved), and
// version waiters (commit sync, tests) are woken by applyLocked's
// broadcast under r.mu after the run completes. Broadcasting per
// publish as well was measured to cost more than the installs
// themselves (a wakeup storm of r.mu acquisitions).
//
// An install error leaves the watermark where it was. The caller must
// hold the apply window (at most one run inside the engine) and must
// NOT hold r.mu.
func (r *Replica) applyBatch(wss []*writeset.WriteSet, start uint64, refresh bool) error {
	eng := r.engine()
	// The apply window makes this run the engine's only writer, so the
	// check cannot race — it turns an ordering bug into a loud error
	// whatever the schedule.
	if v := eng.Version(); start != v+1 {
		return fmt.Errorf("%w: engine at %d, run starts at %d", storage.ErrBadVersion, v, start)
	}
	if err := eng.InstallWriteSets(wss, start); err != nil {
		return fmt.Errorf("install at %d: %w", start, err)
	}
	if refresh {
		r.appliedRefreshes.Add(int64(len(wss)))
	}
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
func (r *Replica) WaitVersion(v uint64) error { return r.waitVersion(v, 0) }

// waitVersion is WaitVersion for at most limit (0: no bound), after
// which it returns ErrStartTimeout.
func (r *Replica) waitVersion(v uint64, limit time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	// expired is allocated only for a wait that has a bound: a wait
	// that needs none must cost the read path nothing.
	var expired *bool
	if limit > 0 && r.engine().Version() < v {
		expired = new(bool)
		t := time.AfterFunc(limit, func() {
			r.mu.Lock()
			*expired = true
			r.cond.Broadcast()
			r.mu.Unlock()
		})
		defer t.Stop()
	}
	for r.engine().Version() < v {
		if r.crashed {
			return ErrCrashed
		}
		if expired != nil && *expired {
			return ErrStartTimeout
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
	// touched accumulates the table-sets of executed statements, each
	// table once, in order of first touch — the transaction's observed
	// read set, reported to the history checker. It only grows by
	// append, so a prefix handed out stays as it was; touchedBuf backs
	// the first few.
	touched    []string
	touchedBuf [4]string
	// roCommit caches ReadOnlyCommit's answer; it is unset (not ReadOnly)
	// until built and again once a statement has touched a table it does
	// not cover.
	roCommit CommitResult
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

// Excise takes d out of the running stage: the caller held the
// request that ends the transaction that long before passing it on, so
// the stage ends where it would have had the request come at once, and
// the stages after it keep their own lengths (metrics.Timeline.Excise).
func (t *Txn) Excise(d time.Duration) { t.stages.Excise(d) }

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
	return r.BeginWithin(minVersion, 0, parent)
}

// BeginWithin is Begin that waits for minVersion at most limit (0: no
// bound): a start version the replica has not reached by then fails
// with ErrStartTimeout and starts nothing. A server bounds the wait of
// a start version its caller chose, which no version may ever reach.
func (r *Replica) BeginWithin(minVersion uint64, limit time.Duration, parent *dtrace.SpanContext) (*Txn, error) {
	tx := &Txn{r: r, id: r.nextTxnID.Add(1)}
	tx.touched = tx.touchedBuf[:0]
	if tr := r.tracer.Load(); tr != nil {
		var sc dtrace.SpanContext
		if parent != nil {
			sc = *parent
		}
		tx.span = tr.StartSpan("replica.txn", sc)
		tx.waits = tx.span
	}
	tx.enter(metrics.StageVersion)
	if tx.span != nil {
		tx.span.SetAttr("replica", strconv.Itoa(r.cfg.ID))
		tx.span.SetAttr("min_version", strconv.FormatUint(minVersion, 10))
	}
	err := r.waitVersion(minVersion, limit)
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
		outcome := "crashed"
		if err == ErrStartTimeout {
			outcome = "start timeout"
		}
		tx.span.SetAttr("outcome", outcome)
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
// (reads and writes), in order of first touch. The slice is the
// transaction's own, not a copy: the caller must not modify it.
func (t *Txn) Touched() []string { return t.touched }

// touch adds a statement's table-set to the observed read set.
func (t *Txn) touch(tables []string) {
	for _, tab := range tables {
		if !slices.Contains(t.touched, tab) {
			t.touched = append(t.touched, tab)
			t.roCommit = CommitResult{}
		}
	}
}

// ReadOnlyCommit returns what Commit would return now for a transaction
// that has buffered no write; ok is false for one that has. Such a
// commit is local (§IV), so its outcome is known as soon as the last
// statement is: the wire layer reports it with every statement and a
// read-only commit needs no answer. Table versions read now bound what
// the snapshot can have observed at least as tightly as at commit time:
// every version at or below the snapshot was installed before it was
// taken. The returned values are shared with later calls and must not
// be modified.
func (t *Txn) ReadOnlyCommit() (res CommitResult, ok bool) {
	if !t.stx.ReadOnly() {
		return CommitResult{}, false
	}
	if !t.roCommit.ReadOnly {
		snap := t.stx.Snapshot()
		touched := t.Touched()
		t.roCommit = CommitResult{Version: snap, ReadOnly: true, Touched: touched, TableVersions: t.r.engine().TableVersionsAt(touched, snap)}
	}
	return t.roCommit, true
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
		// applyBatch publishes the run in the window before applyLocked
		// retakes r.mu to clear r.applying.
		snap := t.stx.Snapshot()
		for _, ref := range r.reorder {
			if ref.Version > snap && ref.WS.ConflictsWith(ws) {
				killed = true
				t.killed = true
				break
			}
		}
		// The run in the apply window — a refresh batch that left the
		// reorder buffer, or a local commit's writeset — is not yet
		// applied; each of its writesets must still be checked
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
	// Touched is the transaction's observed table-set, reads and writes
	// (Txn.Touched) — forwarded to the history checker.
	Touched []string
	// TableVersions bounds, per table of Touched and aligned with it, the
	// newest write this transaction can have observed (written tables
	// report the commit version itself; 0 is no bound). Under
	// fine-grained consistency the session's client folds these into its
	// per-table floors (core.Floor) — the session bound that lets a later
	// transaction on a cold table start immediately while still never
	// regressing below anything this one saw.
	TableVersions []uint64
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
	if res, ok := t.ReadOnlyCommit(); ok {
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

	// Wait for our turn: every predecessor applied and the apply window
	// free. The drainer stops at our version on its own — the refresh
	// stream does not carry the origin's commits back to it.
	t.enter(metrics.StageSync)
	r.mu.Lock()
	for {
		if r.crashed {
			r.mu.Unlock()
			t.abortInternal()
			return CommitResult{}, ErrCrashed
		}
		v := r.engine().Version()
		if v >= dec.Version || (v == dec.Version-1 && len(r.applying) == 0) {
			break
		}
		r.cond.Wait()
	}
	// A resubscribe backfill replays certifier history, which includes
	// this replica's OWN commits: the drainer may already have installed
	// our writeset — identical content, straight from the certifier.
	// Committing it again would be a double apply, so adopt the refresh
	// as our commit instead; logging it is the drainer's.
	t.enter(metrics.StageCommit)
	if r.engine().Version() < dec.Version {
		r.applyLocked([]certifier.Refresh{{Version: dec.Version, WS: ws}}, false)
	}
	r.mu.Unlock()

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

	// A statement that failed after writing touched nothing, but its
	// writes stand: every written table joins the observed set.
	written := ws.Tables()
	t.touch(written)
	touched := t.Touched()
	tv := r.engine().TableVersionsAt(touched, t.stx.Snapshot())
	for i, tab := range touched {
		if slices.Contains(written, tab) {
			tv[i] = dec.Version
		}
	}
	res := CommitResult{Version: dec.Version, WrittenTables: written, Touched: touched, TableVersions: tv}
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
	r.arrived = make(map[uint64]time.Time)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.cert.Unsubscribe(r.cfg.ID)
}

// Floor waits for the certifier's first answer to the replica's live
// subscription and returns its floor, or the refusal (see floored). A
// fresh replica serves once its Vlocal has reached it (WaitVersion).
func (r *Replica) Floor() (uint64, error) {
	r.mu.Lock()
	sub := r.sub
	r.mu.Unlock()
	return floorOf(sub)
}

// Recover reattaches a crashed replica: it resubscribes from its
// Vlocal, so the subscription backfills every version it missed, and
// returns once the replica has applied through the subscription's floor
// — every version certified before it resubscribed. A certifier that
// can no longer replay from Vlocal (it trimmed its history above it)
// refuses the subscription: Recover returns the refusal and leaves the
// replica crashed, rather than serve silently diverged data. A source
// with no floor (one that knows nothing of the certifier's version) is
// caught up as soon as it is attached.
func (r *Replica) Recover() error {
	r.mu.Lock()
	crashed := r.crashed
	r.mu.Unlock()
	if !crashed {
		return errors.New("replica: Recover on a live replica")
	}
	floor, err := floorOf(r.attach())
	if err != nil {
		r.Crash()
		return fmt.Errorf("replica %d: recovery: %w", r.cfg.ID, err)
	}
	return r.WaitVersion(floor)
}

// RecoverFrom reattaches a crashed replica around a replacement
// backend — the disk-restart path. The process died (the old backend
// was abandoned mid-write, kill -9 style), a new backend was recovered
// from its checkpoint + WAL suffix, and the replica resumes from the
// recovered Vlocal: the subscription backfills only the history suffix
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
