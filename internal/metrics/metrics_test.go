package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageStrings(t *testing.T) {
	want := []string{"Version", "Queries", "Certify", "Sync", "Commit", "Global"}
	for i, st := range Stages {
		if st.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, st.String(), want[i])
		}
	}
}

func TestTimelineAccumulates(t *testing.T) {
	var tl Timeline
	tl.Enter(StageVersion)
	time.Sleep(10 * time.Millisecond)
	tl.Enter(StageQueries) // implicitly ends Version
	if tl.Stage(StageQueries) != 0 || tl.Len() != 1 {
		t.Fatalf("running visit counted: queries = %v, len = %d", tl.Stage(StageQueries), tl.Len())
	}
	time.Sleep(10 * time.Millisecond)
	tl.Stop()
	if tl.Stage(StageVersion) < 5*time.Millisecond {
		t.Fatalf("version stage = %v", tl.Stage(StageVersion))
	}
	if tl.Stage(StageQueries) < 5*time.Millisecond {
		t.Fatalf("queries stage = %v", tl.Stage(StageQueries))
	}
	if tl.Stage(StageGlobal) != 0 {
		t.Fatalf("untouched stage = %v", tl.Stage(StageGlobal))
	}
	total := tl.Total()
	if total != tl.Stage(StageVersion)+tl.Stage(StageQueries) {
		t.Fatalf("total %v != sum of stages", total)
	}
	// Stop is idempotent, and a stopped timeline no longer changes.
	tl.Stop()
	tl.Enter(StageCommit)
	if tl.Total() != total || tl.Len() != 2 {
		t.Fatalf("stopped timeline changed: total %v → %v, len %d", total, tl.Total(), tl.Len())
	}
}

// TestTimelineExcise: excised time leaves the running visit, the visits
// after it keep their lengths and start that much sooner, and an
// excision longer than the visit so far empties it without reaching
// back into the visits before it.
func TestTimelineExcise(t *testing.T) {
	var tl Timeline
	tl.Enter(StageVersion)
	time.Sleep(5 * time.Millisecond)
	tl.Enter(StageQueries)
	time.Sleep(40 * time.Millisecond)
	tl.Excise(30 * time.Millisecond)
	tl.Enter(StageCommit)
	time.Sleep(10 * time.Millisecond)
	tl.Stop()
	version, queries, commit := tl.Stage(StageVersion), tl.Stage(StageQueries), tl.Stage(StageCommit)
	if version < 5*time.Millisecond {
		t.Fatalf("version stage = %v, want its own 5ms at least", version)
	}
	if queries < 10*time.Millisecond || queries >= 40*time.Millisecond {
		t.Fatalf("queries stage = %v, want 40ms slept less 30ms excised", queries)
	}
	if commit < 10*time.Millisecond {
		t.Fatalf("commit stage = %v, want its own 10ms at least", commit)
	}
	if _, start, _ := tl.Visit(2); start != version+queries {
		t.Fatalf("commit starts at %v, want where queries ends (%v)", start, version+queries)
	}
	if tl.Total() != version+queries+commit {
		t.Fatalf("total %v != sum of stages", tl.Total())
	}

	var capped Timeline
	capped.Enter(StageVersion)
	time.Sleep(5 * time.Millisecond)
	capped.Enter(StageQueries)
	capped.Excise(time.Hour)
	capped.Stop()
	if v, q := capped.Stage(StageVersion), capped.Stage(StageQueries); v < 5*time.Millisecond || q > time.Millisecond {
		t.Fatalf("over-long excision: version %v, queries %v; want version kept, queries emptied", v, q)
	}
	// A stopped timeline no longer changes.
	total := capped.Total()
	capped.Excise(time.Millisecond)
	if capped.Total() != total {
		t.Fatalf("excision changed a stopped timeline: %v → %v", total, capped.Total())
	}
}

func TestTimerReenterStage(t *testing.T) {
	var tl Timeline
	tl.Enter(StageSync)
	time.Sleep(5 * time.Millisecond)
	tl.Enter(StageCommit)
	time.Sleep(1 * time.Millisecond)
	tl.Enter(StageSync) // revisit
	time.Sleep(5 * time.Millisecond)
	tl.Stop()
	if tl.Stage(StageSync) < 8*time.Millisecond {
		t.Fatalf("revisited stage did not accumulate: %v", tl.Stage(StageSync))
	}
}

func TestCollectorFlow(t *testing.T) {
	c := NewCollector()
	var tm Timeline
	tm.Enter(StageQueries)
	time.Sleep(time.Millisecond)
	tm.Stop()
	c.RecordCommit(true, 10*time.Millisecond)
	c.RecordCommit(false, 20*time.Millisecond)
	c.RecordAbort()
	// The replicas' side: one timeline per commit, or none yet for one
	// whose replica has not finished it.
	c.RecordTimeline(tm, true, 2*time.Millisecond)

	s := c.Snapshot()
	if s.Committed != 2 || s.Updates != 1 || s.ReadOnly != 1 || s.Aborted != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.MeanResponse != 15*time.Millisecond {
		t.Fatalf("mean response = %v", s.MeanResponse)
	}
	if s.MeanSync != 2*time.Millisecond || s.MeanReadSync != 0 {
		t.Fatalf("mean sync = %v, read-only %v", s.MeanSync, s.MeanReadSync)
	}
	if got := s.StageMeans[StageQueries]; got != tm.Stage(StageQueries) {
		t.Fatalf("queries mean = %v over the one recorded timeline, want %v", got, tm.Stage(StageQueries))
	}
	c.RecordTimeline(tm, false, 0)
	if s := c.Snapshot(); s.MeanSync != time.Millisecond || s.StageMeans[StageQueries] != tm.Stage(StageQueries) {
		t.Fatalf("after the read's timeline: mean sync = %v, queries mean = %v", s.MeanSync, s.StageMeans[StageQueries])
	}
	if got := s.AbortRate(); got < 0.3 || got > 0.4 {
		t.Fatalf("abort rate = %v", got)
	}
	if s.TPS <= 0 {
		t.Fatalf("tps = %v", s.TPS)
	}
	if !strings.Contains(s.String(), "tps=") {
		t.Fatalf("String = %q", s.String())
	}
	if !strings.Contains(s.BreakdownRow(), "Queries=") {
		t.Fatalf("BreakdownRow = %q", s.BreakdownRow())
	}
}

func TestResetDropsWarmup(t *testing.T) {
	c := NewCollector()
	var tm Timeline
	tm.Enter(StageQueries)
	tm.Stop()
	c.RecordCommit(true, time.Millisecond)
	c.RecordTimeline(tm, true, time.Millisecond)
	c.Reset()
	s := c.Snapshot()
	if s.Committed != 0 || len(s.StageMeans) != 0 || s.MeanSync != 0 {
		t.Fatalf("warm-up data survived Reset: %+v", s)
	}
	c.RecordCommit(true, time.Millisecond)
	if c.Snapshot().Committed != 1 {
		t.Fatal("post-Reset commit not recorded")
	}
}

func TestEmptySnapshotSafe(t *testing.T) {
	c := NewCollector()
	s := c.Snapshot()
	if s.MeanResponse != 0 || s.P95Response != 0 || s.AbortRate() != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.RecordCommit(false, time.Duration(i)*time.Millisecond)
	}
	s := c.Snapshot()
	if s.P95Response < 90*time.Millisecond || s.P95Response > 100*time.Millisecond {
		t.Fatalf("p95 = %v", s.P95Response)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	// 10 samples of 1..10ms: nearest-rank p95 is the 10th value. The
	// old floored-index formula returned the 9th.
	c := NewCollector()
	for i := 1; i <= 10; i++ {
		c.RecordCommit(false, time.Duration(i)*time.Millisecond)
	}
	if got := c.Snapshot().P95Response; got != 10*time.Millisecond {
		t.Fatalf("p95 of 10 samples = %v, want 10ms", got)
	}
	// p50 of [1..10] is the 5th value; p100 is the max; tiny p clamps
	// to the minimum.
	h := &durationHist{}
	for i := 1; i <= 10; i++ {
		h.add(time.Duration(i) * time.Millisecond)
	}
	if got := h.percentile(0.5); got != 5*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.percentile(1.0); got != 10*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := h.percentile(0.001); got != time.Millisecond {
		t.Fatalf("p0.1 = %v", got)
	}
}

func TestSnapshotMarshalJSON(t *testing.T) {
	c := NewCollector()
	var tm Timeline
	tm.Enter(StageQueries)
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	c.RecordCommit(true, 10*time.Millisecond)
	c.RecordTimeline(tm, true, 3*time.Millisecond)
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Committed    int64            `json:"committed"`
		TPS          float64          `json:"tps"`
		MeanResponse int64            `json:"mean_response_us"`
		MeanSync     int64            `json:"mean_sync_us"`
		Stages       map[string]int64 `json:"stage_means_us"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("round trip: %v (%s)", err, data)
	}
	if parsed.Committed != 1 || parsed.TPS <= 0 {
		t.Fatalf("parsed = %+v", parsed)
	}
	if parsed.MeanResponse != 10000 || parsed.MeanSync != 3000 {
		t.Fatalf("durations not in microseconds: %+v", parsed)
	}
	if parsed.Stages["Queries"] < 1000 {
		t.Fatalf("stage means = %v", parsed.Stages)
	}
	if _, ok := parsed.Stages["Global"]; !ok {
		t.Fatalf("stage means missing zero stages: %v", parsed.Stages)
	}
}

func TestTimerSpans(t *testing.T) {
	var tl Timeline
	if tl.Len() != 0 || tl.Total() != 0 || !tl.Begin().IsZero() {
		t.Fatalf("zero timeline not empty: %+v", tl)
	}
	entered := time.Now()
	tl.Enter(StageVersion)
	tl.Enter(StageQueries)
	tl.Enter(StageCertify)
	tl.Stop()
	if tl.Begin().Before(entered) {
		t.Fatalf("begin %v before the first Enter %v", tl.Begin(), entered)
	}
	want := []Stage{StageVersion, StageQueries, StageCertify}
	if tl.Len() != len(want) {
		t.Fatalf("visits = %d, want %d", tl.Len(), len(want))
	}
	var end time.Duration
	for i := range want {
		st, start, dur := tl.Visit(i)
		if st != want[i] {
			t.Fatalf("visit %d stage = %v, want %v", i, st, want[i])
		}
		if dur < 0 {
			t.Fatalf("visit %d ends before it starts", i)
		}
		if start != end {
			t.Fatalf("visit %d starts at %v, predecessor ended at %v", i, start, end)
		}
		end = start + dur
	}
	if end != tl.Total() {
		t.Fatalf("last visit ends at %v, total %v", end, tl.Total())
	}
}

// A transaction visits each stage once; the timeline holds that many
// visits and folds anything further into the last one.
func TestTimelineFull(t *testing.T) {
	var tl Timeline
	for _, st := range Stages {
		tl.Enter(st)
	}
	tl.Enter(StageVersion) // dropped
	tl.Stop()
	if tl.Len() != len(Stages) {
		t.Fatalf("visits = %d, want %d", tl.Len(), len(Stages))
	}
	if st, _, _ := tl.Visit(tl.Len() - 1); st != StageGlobal {
		t.Fatalf("last visit = %v, want Global", st)
	}
}

func TestReservoirPastMaxSamples(t *testing.T) {
	h := &durationHist{}
	n := maxSamples + 4096
	for i := 1; i <= n; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	if h.n != int64(n) {
		t.Fatalf("n = %d, want %d", h.n, n)
	}
	if len(h.samples) != maxSamples {
		t.Fatalf("reservoir grew past bound: %d", len(h.samples))
	}
	// Mean uses every observation, not just the reservoir.
	wantMean := time.Duration(n+1) * time.Microsecond / 2
	if got := h.mean(); got != wantMean {
		t.Fatalf("mean = %v, want %v", got, wantMean)
	}
	// The reservoir keeps every k-th late sample, so it still spans
	// the whole distribution: p95 must land near the top of the range,
	// not collapse to the early prefix.
	p95 := h.percentile(0.95)
	lo := time.Duration(maxSamples*9/10) * time.Microsecond
	hi := time.Duration(n) * time.Microsecond
	if p95 < lo || p95 > hi {
		t.Fatalf("p95 = %v, want in [%v, %v]", p95, lo, hi)
	}
}

func TestCollectorConcurrentHammer(t *testing.T) {
	// Race-clean under -race: commits, aborts, resets, and snapshots
	// from many goroutines.
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var tm Timeline
			tm.Enter(StageQueries)
			tm.Stop()
			for i := 0; i < 500; i++ {
				switch i % 4 {
				case 0:
					c.RecordCommit(true, time.Duration(i)*time.Microsecond)
				case 1:
					c.RecordCommit(false, time.Duration(i)*time.Microsecond)
					c.RecordTimeline(tm, false, time.Duration(i)*time.Microsecond)
				case 2:
					c.RecordAbort()
				case 3:
					s := c.Snapshot()
					if s.Committed < 0 || s.Aborted < 0 {
						t.Errorf("negative snapshot: %+v", s)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Committed != 8*250 || s.Aborted != 8*125 {
		t.Fatalf("committed=%d aborted=%d", s.Committed, s.Aborted)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.RecordCommit(i%2 == 0, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().Committed; got != 1600 {
		t.Fatalf("committed = %d, want 1600", got)
	}
}
