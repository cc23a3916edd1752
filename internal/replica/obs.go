package replica

import (
	"strconv"

	"sconrep/internal/obs"
)

// obsState holds a replica's live-observability instruments. It is nil
// until EnableObs; every hot-path hook is guarded by one atomic load
// and a nil check, so a replica without observability pays only the
// clock reads of its transactions' stage timelines.
type obsState struct {
	id     int
	traces *obs.TraceRecorder

	syncDelay     *obs.Histogram
	commits       *obs.Counter
	aborts        *obs.Counter
	earlyAborts   *obs.Counter
	certConflicts *obs.Counter
	// reorderWait times refreshes from reorder-buffer arrival to the
	// start of their group apply; applyBatch sizes the group-applied
	// batches (ObserveValue, unitless).
	reorderWait *obs.Histogram
	applyBatch  *obs.Histogram
}

// EnableObs registers this replica's metrics with reg and, when tr is
// non-nil, records a timeline trace for every finished transaction.
// Call once, before serving traffic. Metric labels carry the replica
// ID so multiple replicas share one registry (a cluster's nodes run in
// one process).
func (r *Replica) EnableObs(reg *obs.Registry, tr *obs.TraceRecorder) {
	if reg == nil || r.obs.Load() != nil {
		return
	}
	id := strconv.Itoa(r.cfg.ID)
	o := &obsState{id: r.cfg.ID, traces: tr}
	o.syncDelay = reg.Histogram("sconrep_sync_delay_seconds",
		"Synchronization start delay: wait until Vlocal reaches the transaction's minimum start version (the paper's Figure 6 series).",
		nil, "replica", id)
	o.commits = reg.Counter("sconrep_replica_commits_total",
		"Transactions committed on this replica.", "replica", id)
	o.aborts = reg.Counter("sconrep_replica_aborts_total",
		"Transactions aborted on this replica (all causes).", "replica", id)
	o.earlyAborts = reg.Counter("sconrep_replica_early_aborts_total",
		"Aborts by early certification against pending refresh writesets (§IV).", "replica", id)
	o.certConflicts = reg.Counter("sconrep_replica_cert_conflicts_total",
		"Aborts decided by the certifier (first-committer-wins conflicts).", "replica", id)
	o.reorderWait = reg.Histogram("sconrep_replica_reorder_wait_seconds",
		"Time refreshes spend in the reorder buffer between arrival and the start of their group apply.",
		nil, "replica", id)
	o.applyBatch = reg.Histogram("sconrep_replica_apply_batch_size",
		"Refreshes coalesced into one group-applied batch (at most 8).",
		[]float64{1, 2, 3, 4, 6, 8}, "replica", id)
	reg.GaugeFunc("sconrep_replica_reorder_depth",
		"Refreshes held in the reorder buffer awaiting a contiguous run (plus the in-flight batch).",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.reorder) + len(r.applying))
		}, "replica", id)
	reg.GaugeFunc("sconrep_replica_applied_version",
		"Vlocal: the replica's latest applied commit version.",
		func() float64 { return float64(r.Version()) }, "replica", id)
	reg.GaugeFunc("sconrep_replica_gc_horizon_lag",
		"Vlocal minus the storage horizon: how many versions the oldest open snapshot holds collection back (0 when none is open).",
		func() float64 {
			e := r.engine()
			h := e.Horizon() // first: the version only grows past it
			return float64(e.Version() - h)
		}, "replica", id)
	reg.GaugeFunc("sconrep_replica_refresh_queue_depth",
		"Refresh writesets received but not yet applied (mailbox + reorder buffer).",
		func() float64 { return float64(r.RefreshQueueDepth()) }, "replica", id)
	reg.GaugeFunc("sconrep_replica_active_txns",
		"In-flight client transactions (the load balancer's routing signal).",
		func() float64 { return float64(r.Active()) }, "replica", id)
	reg.GaugeFunc("sconrep_replica_applied_refreshes",
		"Refresh transactions committed by this replica.",
		func() float64 { return float64(r.AppliedRefreshes()) }, "replica", id)
	reg.GaugeFunc("sconrep_replica_crashed",
		"1 while the replica is detached (crashed), else 0.",
		func() float64 {
			if r.Crashed() {
				return 1
			}
			return 0
		}, "replica", id)
	reg.GaugeVecFunc("sconrep_replica_table_version",
		"Vt per table: the version of the last applied write to each table (fine-grained synchronization input).",
		"table", r.tableVersions, "replica", id)
	r.obs.Store(o)
}

// RefreshQueueDepth returns how many refresh writesets are queued but
// not yet applied: the certifier-mailbox backlog plus the reorder
// buffer — the replica's replication lag in transactions.
func (r *Replica) RefreshQueueDepth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.reorder) + len(r.applying)
	if r.sub != nil && !r.crashed {
		n += r.sub.QueueLen()
	}
	return n
}

// tableVersions is the scrape-time view for the table-version gauges:
// the live engine's per-table last write at Vlocal, so it follows a
// disk restart's engine swap.
func (r *Replica) tableVersions() map[string]float64 {
	eng := r.engine()
	names := eng.Tables()
	vers := eng.TableVersionsAt(names, r.Version())
	out := make(map[string]float64, len(vers))
	for i, v := range vers {
		if v > 0 {
			out[names[i]] = float64(v)
		}
	}
	return out
}

// finish records the outcome counters and, from the stopped stage
// timeline, the transaction's trace. Called exactly once per
// transaction, from abortInternal (the single finalization point);
// early says early certification killed it.
func (o *obsState) finish(t *Txn, early bool) {
	if t.committed {
		o.commits.Inc()
	} else {
		o.aborts.Inc()
		if early {
			o.earlyAborts.Inc()
		}
	}
	if o.traces == nil {
		return
	}
	stages := make([]obs.StageSpan, t.stages.Len())
	for i := range stages {
		st, start, dur := t.stages.Visit(i)
		stages[i] = obs.StageSpan{Stage: st.String(), StartUs: start.Microseconds(), DurationUs: dur.Microseconds()}
	}
	o.traces.Record(obs.Trace{
		TxnID:         t.id,
		Replica:       o.id,
		Outcome:       t.outcome(),
		ReadOnly:      t.readOnly,
		Snapshot:      t.stx.Snapshot(),
		CommitVersion: t.commitVersion,
		Start:         t.stages.Begin(),
		TotalUs:       t.stages.Total().Microseconds(),
		Stages:        stages,
	})
}
