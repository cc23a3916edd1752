// Package metrics collects the measurements the paper reports:
// throughput (TPS), response time, and the per-transaction latency
// decomposition of §V-A — version / queries / certify / sync / commit /
// global — plus the synchronization delay series of Figure 6.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage identifies one component of a transaction's latency.
type Stage int

const (
	// StageVersion is the synchronization start delay: waiting for the
	// replica to reach the version required by the consistency mode.
	StageVersion Stage = iota
	// StageQueries is SQL statement execution.
	StageQueries
	// StageCertify is the round trip to the certifier.
	StageCertify
	// StageSync is waiting for earlier commits (refresh or local) so
	// the transaction commits in certifier order.
	StageSync
	// StageCommit is the local DBMS commit.
	StageCommit
	// StageGlobal is the eager mode's global commit delay: waiting for
	// every replica to apply and commit the transaction.
	StageGlobal
	numStages
)

// Stages lists all stages in presentation order.
var Stages = []Stage{StageVersion, StageQueries, StageCertify, StageSync, StageCommit, StageGlobal}

// String returns the label used in Figure 4.
func (s Stage) String() string {
	switch s {
	case StageVersion:
		return "Version"
	case StageQueries:
		return "Queries"
	case StageCertify:
		return "Certify"
	case StageSync:
		return "Sync"
	case StageCommit:
		return "Commit"
	case StageGlobal:
		return "Global"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Timeline is one transaction's stage record: which stages it visited,
// in order, and when each began. It is a fixed-size value — the owner
// holds it in place and writing it allocates nothing — with room for
// one visit per stage, which is what a transaction makes; an Enter
// beyond that is dropped and the last visit absorbs its time. The zero
// value is an empty timeline. Not safe for concurrent use.
type Timeline struct {
	begin time.Time
	// at[i] is visit i's start as an offset from begin; a visit ends
	// where the next starts, the last at at[n] once stopped.
	at    [numStages + 1]time.Duration
	stage [numStages]uint8
	// excised is the time Excise took out; offsets are wall time since
	// begin less it.
	excised time.Duration
	n       uint8
	stopped bool
}

// now is the current offset from begin.
func (tl *Timeline) now() time.Duration { return time.Since(tl.begin) - tl.excised }

// Enter ends the running visit, if any, and starts one to stage s.
func (tl *Timeline) Enter(s Stage) {
	if tl.stopped || int(tl.n) == len(tl.stage) {
		return
	}
	if tl.n == 0 {
		tl.begin = time.Now()
	} else {
		tl.at[tl.n] = tl.now()
	}
	tl.stage[tl.n] = uint8(s)
	tl.n++
}

// Stop ends the running visit. A stopped timeline no longer changes.
func (tl *Timeline) Stop() {
	if tl.stopped || tl.n == 0 {
		return
	}
	tl.at[tl.n] = tl.now()
	tl.stopped = true
}

// Excise takes d out of the running visit as time the transaction was
// not in it: the visit ends d sooner than the next Enter or Stop, and
// every later visit starts d sooner and keeps its own length. d is
// capped at the running visit's length so far.
func (tl *Timeline) Excise(d time.Duration) {
	if tl.stopped || tl.n == 0 || d <= 0 {
		return
	}
	tl.excised += min(d, tl.now()-tl.at[tl.n-1])
}

// Begin returns when the first visit started (zero if none did).
func (tl *Timeline) Begin() time.Time { return tl.begin }

// Len returns the number of finished visits. The running visit is not
// one of them; call Stop first for the complete record.
func (tl *Timeline) Len() int {
	if tl.stopped || tl.n == 0 {
		return int(tl.n)
	}
	return int(tl.n) - 1
}

// Visit returns finished visit i in wall-clock order: its stage, its
// start as an offset from Begin, and its duration.
func (tl *Timeline) Visit(i int) (s Stage, start, dur time.Duration) {
	return Stage(tl.stage[i]), tl.at[i], tl.at[i+1] - tl.at[i]
}

// Stage returns the time spent in one stage over all finished visits.
func (tl *Timeline) Stage(s Stage) time.Duration {
	var sum time.Duration
	for i := 0; i < tl.Len(); i++ {
		if st, _, dur := tl.Visit(i); st == s {
			sum += dur
		}
	}
	return sum
}

// Total returns the time covered by finished visits; visits are
// contiguous, so it is also the sum of all stages.
func (tl *Timeline) Total() time.Duration { return tl.at[tl.Len()] }

// Collector aggregates transaction outcomes across concurrent clients.
// Two sides record into it: the client counts each outcome and times
// its response (RecordCommit, RecordAbort), and the replica that ran a
// committed transaction records its stage timeline and synchronization
// delay (RecordTimeline) — the stages are the replica's, and no client
// sees them.
type Collector struct {
	mu          sync.Mutex
	start       time.Time
	collecting  bool
	committed   int64
	aborted     int64
	readOnly    int64
	updates     int64
	respTimes   durationHist
	timelines   int64
	stageTotals [numStages]time.Duration
	syncDelays  durationHist
	// readSyncDelays tracks the sync delay of read-only transactions
	// separately: on skewed workloads it isolates the fine-grained
	// mode's benefit from closed-loop load feedback (readers that do
	// not wait speed the whole loop up, which deepens the apply backlog
	// and inflates the update transactions' waits — the all-transaction
	// mean then no longer separates the modes).
	readSyncDelays durationHist
}

// NewCollector returns a collector that starts recording immediately.
// Call Reset at the end of a warm-up phase to begin a clean
// measurement interval.
func NewCollector() *Collector {
	return &Collector{start: time.Now(), collecting: true}
}

// Reset discards warm-up data and starts the measurement interval.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.start = time.Now()
	c.collecting = true
	c.committed, c.aborted, c.readOnly, c.updates = 0, 0, 0, 0
	c.respTimes = durationHist{}
	c.timelines = 0
	c.stageTotals = [numStages]time.Duration{}
	c.syncDelays = durationHist{}
	c.readSyncDelays = durationHist{}
}

// RecordCommit records one committed transaction as its client saw it.
// response is the client-observed wall time (stages plus network and
// queueing).
func (c *Collector) RecordCommit(update bool, response time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.collecting {
		return
	}
	c.committed++
	if update {
		c.updates++
	} else {
		c.readOnly++
	}
	c.respTimes.add(response)
}

// RecordTimeline records one committed transaction as its replica saw
// it: the stopped stage timeline, and the consistency synchronization
// delay — the version stage for the lazy modes, the global stage for
// eager.
func (c *Collector) RecordTimeline(tl Timeline, update bool, syncDelay time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.collecting {
		return
	}
	c.timelines++
	for i := 0; i < tl.Len(); i++ {
		s, _, d := tl.Visit(i)
		c.stageTotals[s] += d
	}
	c.syncDelays.add(syncDelay)
	if !update {
		c.readSyncDelays.add(syncDelay)
	}
}

// RecordAbort records one aborted transaction.
func (c *Collector) RecordAbort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.collecting {
		return
	}
	c.aborted++
}

// Snapshot is a point-in-time summary of the measurement interval.
type Snapshot struct {
	Elapsed      time.Duration
	Committed    int64
	Aborted      int64
	ReadOnly     int64
	Updates      int64
	TPS          float64
	MeanResponse time.Duration
	P95Response  time.Duration
	MeanSync     time.Duration
	// MeanReadSync is the mean sync delay over read-only transactions
	// only (zero when none committed).
	MeanReadSync time.Duration
	// StageMeans averages each stage over the committed transactions
	// whose timelines were recorded; stages that only occur on update
	// transactions (certify, sync, global) are averaged over the whole
	// mix, matching the paper's per-mix breakdown in Figure 4.
	StageMeans map[Stage]time.Duration
}

// Snapshot summarizes the measurement interval so far. It does not
// end the interval: collection continues and later snapshots cover a
// longer elapsed time.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := time.Since(c.start)
	s := Snapshot{
		Elapsed:    elapsed,
		Committed:  c.committed,
		Aborted:    c.aborted,
		ReadOnly:   c.readOnly,
		Updates:    c.updates,
		StageMeans: make(map[Stage]time.Duration, int(numStages)),
	}
	if elapsed > 0 {
		s.TPS = float64(c.committed) / elapsed.Seconds()
	}
	if c.timelines > 0 {
		for i := Stage(0); i < numStages; i++ {
			s.StageMeans[i] = c.stageTotals[i] / time.Duration(c.timelines)
		}
	}
	s.MeanResponse = c.respTimes.mean()
	s.P95Response = c.respTimes.percentile(0.95)
	s.MeanSync = c.syncDelays.mean()
	s.MeanReadSync = c.readSyncDelays.mean()
	return s
}

// AbortRate returns aborted / (aborted + committed).
func (s Snapshot) AbortRate() float64 {
	total := s.Aborted + s.Committed
	if total == 0 {
		return 0
	}
	return float64(s.Aborted) / float64(total)
}

// String renders a compact one-line summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("tps=%.1f resp=%s p95=%s sync=%s commit=%d abort=%d",
		s.TPS, s.MeanResponse.Round(time.Microsecond), s.P95Response.Round(time.Microsecond),
		s.MeanSync.Round(time.Microsecond), s.Committed, s.Aborted)
}

// MarshalJSON renders the snapshot in the machine-readable format
// shared by sconrep-bench and the obs /snapshot endpoint: stage means
// keyed by stage name, all durations in microseconds.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	stages := make(map[string]int64, len(s.StageMeans))
	for st, d := range s.StageMeans {
		stages[st.String()] = d.Microseconds()
	}
	return json.Marshal(struct {
		ElapsedUs      int64            `json:"elapsed_us"`
		Committed      int64            `json:"committed"`
		Aborted        int64            `json:"aborted"`
		ReadOnly       int64            `json:"read_only"`
		Updates        int64            `json:"updates"`
		TPS            float64          `json:"tps"`
		AbortRate      float64          `json:"abort_rate"`
		MeanResponseUs int64            `json:"mean_response_us"`
		P95ResponseUs  int64            `json:"p95_response_us"`
		MeanSyncUs     int64            `json:"mean_sync_us"`
		MeanReadSyncUs int64            `json:"mean_read_sync_us"`
		StageMeansUs   map[string]int64 `json:"stage_means_us"`
	}{
		ElapsedUs:      s.Elapsed.Microseconds(),
		Committed:      s.Committed,
		Aborted:        s.Aborted,
		ReadOnly:       s.ReadOnly,
		Updates:        s.Updates,
		TPS:            s.TPS,
		AbortRate:      s.AbortRate(),
		MeanResponseUs: s.MeanResponse.Microseconds(),
		P95ResponseUs:  s.P95Response.Microseconds(),
		MeanSyncUs:     s.MeanSync.Microseconds(),
		MeanReadSyncUs: s.MeanReadSync.Microseconds(),
		StageMeansUs:   stages,
	})
}

// BreakdownRow renders the Figure-4 style stage breakdown.
func (s Snapshot) BreakdownRow() string {
	var b strings.Builder
	for i, st := range Stages {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s=%s", st, s.StageMeans[st].Round(10*time.Microsecond))
	}
	return b.String()
}

// durationHist keeps raw samples (bounded) for mean and percentiles.
type durationHist struct {
	sum     time.Duration
	n       int64
	samples []time.Duration
}

// maxSamples bounds memory; beyond it we keep every k-th sample, which
// is adequate for the p95 of a stationary interval.
const maxSamples = 65536

func (h *durationHist) add(d time.Duration) {
	h.sum += d
	h.n++
	if len(h.samples) < maxSamples {
		h.samples = append(h.samples, d)
	} else if h.n%16 == 0 {
		h.samples[int(h.n/16)%maxSamples] = d
	}
}

func (h *durationHist) mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// percentile uses the nearest-rank method: the smallest sample such
// that at least p of the samples are ≤ it. Flooring the index (the
// previous int(p*(n-1)) formula) under-reports high percentiles on
// small sample sets — with 10 samples it returned the 9th for p95
// instead of the 10th.
func (h *durationHist) percentile(p float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), h.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
