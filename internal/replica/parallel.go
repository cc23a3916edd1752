package replica

import (
	"fmt"
	"runtime"
	"sync"

	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

// minApplyRun is the fewest writesets worth a goroutine of their own: a
// batch is never cut into runs shorter than this. Measured, not tuned
// per deployment: a single-row install costs 0.3–0.5 µs inside a run,
// a goroutine start plus its two hand-offs several microseconds, so a
// shorter run spends longer being scheduled than installing. With the
// default MaxApplyBatch of 8 every batch is therefore one run.
const minApplyRun = 16

// applyRun is the per-run state of one applyBatch call. Both events
// are armed with Add(1) before any run starts and fired exactly once.
type applyRun struct {
	// installed fires when the run's row versions are all linked (or its
	// install failed) — what a later run sharing a record with it waits
	// for.
	installed sync.WaitGroup
	// published fires when the watermark covers the run, or never will —
	// what the next run waits for before publishing.
	published sync.WaitGroup
	// err is this run's install error; stuck is set when it or any
	// earlier run failed, so the watermark stops before the first
	// failure. Both are written before published fires and read after.
	err   error
	stuck bool
}

// applyBatch is the one refresh-apply route: it installs the
// group-applied batch wss at versions start, start+1, … and publishes
// them. The batch is cut into w contiguous runs of equal length; each
// run goes into the engine through one InstallWriteSets call on one
// goroutine, a run starts once every earlier run it shares a record
// with (read off the conflict graph's Succs) has installed, and run k
// publishes its tail version once run k-1 has published — C5's "apply
// in parallel, commit in order" at run granularity.
//
// w is computed, not configured: the ApplyWorkers cap, the processors
// this process may use, how many minimum-length runs the batch holds,
// and — when those leave more than one — the batch's own parallelism,
// ⌈n ÷ critical path⌉. A one-writeset batch, ApplyWorkers = 1, a pure
// dependency chain and a batch too short to split all come out at
// w = 1: the same two steps every run takes — one InstallWriteSets, one
// publishRun — on the caller's goroutine, with no run state, no
// goroutine, and no graph built unless the first three bounds allowed
// a second run. Run 0 of a wider batch runs on the caller's goroutine
// too.
//
// Together this discharges the engine's run precondition: writes to one
// record inside a run are linked in version order by the run's one
// goroutine; two runs sharing a record are ordered by the installed
// event; runs in the engine at the same time are therefore
// record-disjoint. PublishVersion(v) is reached only after every
// version ≤ v is installed, and only after AppliedRefreshes counts
// them, so a visible version is always a counted one.
//
// Mid-batch publishes do NOT broadcast r.cond: snapshot reads observe
// the published watermark directly through Begin (no wait involved),
// and version waiters (commit sync, tests) are woken by the caller's
// broadcast under r.mu after the batch completes. Per-publish
// broadcasts were measured to cost more than the installs themselves
// on non-conflicting backlogs (a wakeup storm of r.mu acquisitions).
//
// On an install error the watermark stops at the last run before the
// first failing one and that run's error is returned; the caller treats
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
	n := len(wss)
	w := min(r.cfg.ApplyWorkers, n/minApplyRun, runtime.GOMAXPROCS(0))
	var succs [][]int
	if w > 1 {
		g := r.gb.Build(wss)
		if o := r.obs.Load(); o != nil {
			o.applyParallelism.ObserveValue(float64(n) / float64(g.CriticalPath))
		}
		w = min(w, (n+g.CriticalPath-1)/g.CriticalPath)
		succs = g.Succs
	}
	if w <= 1 {
		// One run has nobody to wait for and nobody waiting on it, so it
		// needs no run state: nine batches in ten end here, and they
		// should allocate nothing beyond the engine's two slabs.
		if err := eng.InstallWriteSets(wss, start); err != nil {
			return fmt.Errorf("refresh apply run at %d: %w", start, err)
		}
		r.publishRun(eng, n, start+uint64(n)-1)
		return nil
	}
	size := (n + w - 1) / w // run k is wss[k*size : (k+1)*size]
	w = (n + size - 1) / size

	runs := make([]applyRun, w)
	for k := range runs {
		runs[k].installed.Add(1)
		runs[k].published.Add(1)
	}
	run := func(k int) {
		me := &runs[k]
		lo, hi := k*size, min((k+1)*size, n)
		// Wait for every earlier run with a conflict edge into this one;
		// Succs lists ascend, so the first successor at or past lo decides.
		for i, s := range succs[:min(lo, len(succs))] {
			for _, j := range s {
				if j >= lo {
					if j < hi {
						runs[i/size].installed.Wait()
					}
					break
				}
			}
		}
		me.err = eng.InstallWriteSets(wss[lo:hi], start+uint64(lo))
		me.installed.Done()
		if k > 0 {
			runs[k-1].published.Wait()
			me.stuck = runs[k-1].stuck
		}
		if me.err != nil {
			me.stuck = true
		}
		if !me.stuck {
			r.publishRun(eng, hi-lo, start+uint64(hi)-1)
		}
		me.published.Done()
	}
	for k := 1; k < w; k++ {
		go run(k)
	}
	run(0)
	// Run k fires published only after run k-1 did, so the last run's
	// signal means every run has finished.
	runs[w-1].published.Wait()
	for k := range runs {
		if err := runs[k].err; err != nil {
			return fmt.Errorf("refresh apply run at %d: %w", start+uint64(k*size), err)
		}
	}
	return nil
}

// publishRun makes an installed run of n refreshes ending at version
// tail visible. It counts before it publishes: once a version is
// published, every refresh at or below it is in AppliedRefreshes — the
// order the ordering tests and convergence waiters observe.
func (r *Replica) publishRun(eng *storage.Engine, n int, tail uint64) {
	r.appliedRefreshes.Add(int64(n))
	eng.PublishVersion(tail)
}
