package bench

import (
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/metrics"
)

// TestShapeFig6SyncDelay asserts Figure 6's shape on a reduced grid:
// the eager global commit delay grows with the replica count and
// exceeds the lazy modes' synchronization start delay, which stays
// small.
func TestShapeFig6SyncDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	prof := Profile{Scale: 1.0, Warmup: 400 * time.Millisecond, Measure: 1500 * time.Millisecond}
	syncOf := func(mode core.Mode, reps int) time.Duration {
		res, err := Run(Point{
			Workload: "tpcw", Mode: mode,
			Replicas: reps, Clients: reps * 5,
			Mix: "ordering", ThinkTime: TPCWThink,
		}, prof)
		if err != nil {
			t.Fatal(err)
		}
		return res.Snapshot.MeanSync
	}

	esc2 := syncOf(core.Eager, 2)
	esc6 := syncOf(core.Eager, 6)
	csc6 := syncOf(core.Coarse, 6)
	fsc6 := syncOf(core.Fine, 6)
	t.Logf("sync delay — ESC@2=%v ESC@6=%v CSC@6=%v FSC@6=%v", esc2, esc6, csc6, fsc6)

	if esc6 <= esc2 {
		t.Errorf("eager sync delay should grow with replicas: %v at 2, %v at 6", esc2, esc6)
	}
	if esc6 <= csc6 {
		t.Errorf("eager sync delay (%v) should exceed coarse start delay (%v) at 6 replicas", esc6, csc6)
	}
	if esc6 <= fsc6 {
		t.Errorf("eager sync delay (%v) should exceed fine start delay (%v) at 6 replicas", esc6, fsc6)
	}
}

// TestShapeGranularityAblation asserts the §III-C benefit directly: on
// the skewed workload (updates on one table, reads on another), the
// fine-grained mode starts read-only transactions without waiting —
// their table's version never advances — while the coarse-grained mode
// makes them wait out the full replication lag.
//
// The comparison is over read-only transactions only. The clients are
// closed-loop with no think time, so the all-transaction mean is
// useless here: fine-grained readers that skip the wait speed the loop
// up, the extra updates deepen the apply backlog, and the update
// transactions' inflated waits wash out exactly the separation the
// test is after. The read-only means are immune to that feedback (the
// fine-grained readers' bound is a version the workload never
// advances) and separate the modes by an order of magnitude, which
// also guards the group-apply bound: an unbounded apply batch that
// stalled version publication would drag the coarse readers' delay up
// but can never help fine readers, so the margin below would survive —
// while a batching bug that made fine readers wait would trip it.
func TestShapeGranularityAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	prof := Profile{Scale: 1.0, Warmup: 400 * time.Millisecond, Measure: 1500 * time.Millisecond}
	coarse, err := RunSkewedMicro(core.Coarse, prof)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := RunSkewedMicro(core.Fine, prof)
	if err != nil {
		t.Fatal(err)
	}
	cs := coarse.Snapshot.MeanReadSync
	fs := fine.Snapshot.MeanReadSync
	t.Logf("skewed read-only start delay — CSC=%v FSC=%v (all-txn means: CSC=%v FSC=%v)",
		cs, fs,
		coarse.Snapshot.StageMeans[metrics.StageVersion],
		fine.Snapshot.StageMeans[metrics.StageVersion])
	if coarse.Snapshot.ReadOnly == 0 || fine.Snapshot.ReadOnly == 0 {
		t.Fatalf("vacuous run: read-only commits CSC=%d FSC=%d",
			coarse.Snapshot.ReadOnly, fine.Snapshot.ReadOnly)
	}
	if fs*2 >= cs {
		t.Errorf("fine read-only start delay (%v) should be well under half the coarse one (%v) on the skewed workload", fs, cs)
	}
}

// TestShapeFig4QueriesStage asserts that Figure 4's Queries stage is
// the statements' time and nothing else: it is the same at the 25% and
// 100% update mixes, in every mode. The stage runs from the replica's
// begin to the commit's arrival there, and a read's commit reaches the
// replica on whatever request the gateway sends it next; the gateway
// reports how long it held it, and the replica takes that out. A
// Queries stage that kept the hold would grow as reads grow more common
// — and most in ESC, whose long global waits leave the replicas' links
// idle longest. Half Figure 4's testbed keeps the runs short.
//
// Each mix's reading is the smaller of two runs, taken in the order 25,
// 100, 100, 25: load from outside the test only ever adds to a run's
// stage, and interleaving the mixes spreads a burst of it over both.
// One run per mix read up to 1.31× on a loaded 2-CPU host, next to
// 1.34× for a replica that keeps the hold.
func TestShapeFig4QueriesStage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	prof := Profile{Scale: 1.0, Warmup: 150 * time.Millisecond, Measure: 450 * time.Millisecond}
	queries := func(mode core.Mode, ratio int) time.Duration {
		res, err := Run(Point{
			Workload: "micro", Mode: mode,
			Replicas: 4, Clients: 4,
			UpdatePercent: ratio,
		}, prof)
		if err != nil {
			t.Fatal(err)
		}
		return res.Snapshot.StageMeans[metrics.StageQueries]
	}
	for _, mode := range Modes {
		at25, at100 := queries(mode, 25), queries(mode, 100)
		at100 = min(at100, queries(mode, 100))
		at25 = min(at25, queries(mode, 25))
		t.Logf("%s Queries stage: %v at 25%% updates, %v at 100%%", mode, at25, at100)
		if at100 <= 0 {
			t.Fatalf("%s: no Queries stage at 100%% updates", mode)
		}
		if r := float64(at25) / float64(at100); r < 0.75 || r > 1.25 {
			t.Errorf("%s: Queries stage %v at 25%% updates is %.2f× its %v at 100%%, want within 25%%", mode, at25, r, at100)
		}
	}
}
