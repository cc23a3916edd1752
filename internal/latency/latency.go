// Package latency models the costs the paper's testbed imposed
// physically: LAN messages between middleware components, commit
// I/O at the certifier, applying refresh writesets inside a replica,
// and client think time.
//
// All durations are expressed at "paper scale" (the millisecond-level
// numbers reported in §V) and multiplied by a single Scale factor at
// runtime, so a full TPC-W sweep runs on one machine in seconds while
// preserving every delay ratio — which is what the experimental shapes
// depend on.
package latency

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Model holds the simulated cost parameters. The zero value means
// "no injected delays" (pure CPU execution).
type Model struct {
	// OneWay is the one-way network latency between any two nodes
	// (client↔LB, LB↔replica, replica↔certifier), charged per message
	// on the link that carries it (Source.Link).
	OneWay time.Duration
	// CommitIO is the certifier's forced-log write for an update
	// transaction's certification decision.
	CommitIO time.Duration
	// Certify is the per-decision certification work (conflict test,
	// index maintenance) charged inside the sequencer's critical
	// section. It is zero in every stock model — the real CPU work is
	// measured, not simulated — and exists for benchmarks that study
	// sequencer contention: a nonzero Certify makes the per-shard
	// serialization visible on any machine, because sleeps held under
	// different shard locks overlap exactly as independent sequencers'
	// work overlaps across cores.
	Certify time.Duration
	// StatementCPU is the per-SQL-statement execution cost inside the
	// DBMS, in addition to the engine's real CPU work.
	StatementCPU time.Duration
	// ApplyWriteSet is the cost of applying and committing one refresh
	// writeset at a replica (per writeset, on top of real CPU work).
	ApplyWriteSet time.Duration
	// LocalCommit is the cost of committing a local transaction at a
	// replica (non-forced log write; the paper turns log forcing off).
	LocalCommit time.Duration
	// Jitter is the maximum fractional jitter applied to every delay
	// (0.1 = ±10%).
	Jitter float64
	// TailProb and TailFactor model the heavy tail of real DBMS write
	// paths (checkpoints, page flushes, scheduling hiccups): with
	// probability TailProb an apply or local commit takes TailFactor
	// times longer. The slowest-of-N-replicas wait in the eager mode
	// is dominated by exactly these stragglers, while lazy modes route
	// new transactions away from them.
	TailProb   float64
	TailFactor float64
	// Scale multiplies every duration. 0 is treated as 1.0.
	Scale float64
}

// DefaultLAN approximates the paper's Gigabit-Ethernet cluster at
// paper scale: ~0.5 ms one-way LAN hop, ~4 ms forced commit I/O,
// ~1.2 ms per statement, ~2.5 ms to apply a refresh writeset.
//
// The absolute values need only be plausible; the figures' shapes come
// from their ratios (apply cost ≫ network hop, forced I/O ≫ local
// commit).
func DefaultLAN() Model {
	return Model{
		OneWay:        500 * time.Microsecond,
		CommitIO:      4 * time.Millisecond,
		StatementCPU:  1200 * time.Microsecond,
		ApplyWriteSet: 2500 * time.Microsecond,
		LocalCommit:   800 * time.Microsecond,
		Jitter:        0.15,
		TailProb:      0.05,
		TailFactor:    10,
		Scale:         1.0,
	}
}

// Scaled returns a copy of m with Scale replaced, for running the same
// experiment compressed or stretched in time.
func (m Model) Scaled(scale float64) Model {
	m.Scale = scale
	return m
}

// Source produces jittered delays from a model. Each concurrent actor
// (client, proxy, applier) owns one Source so delays are deterministic
// given the seed yet uncorrelated across actors.
type Source struct {
	m  Model
	mu sync.Mutex
	// rng is the seeded jitter stream.
	// guarded by mu
	rng *rand.Rand
}

// NewSource returns a delay source with deterministic jitter.
func NewSource(m Model, seed int64) *Source {
	return &Source{m: m, rng: rand.New(rand.NewSource(seed))}
}

// Model returns the model the source draws from.
func (s *Source) Model() Model { return s.m }

func (s *Source) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	scale := s.m.Scale
	if scale == 0 {
		scale = 1.0
	}
	f := 1.0
	if s.m.Jitter > 0 {
		s.mu.Lock()
		f = 1 + s.m.Jitter*(2*s.rng.Float64()-1)
		s.mu.Unlock()
	}
	return time.Duration(float64(d) * scale * f)
}

// Sleep blocks for the jittered, scaled duration.
func (s *Source) sleep(d time.Duration) {
	if d = s.jittered(d); d > 0 {
		time.Sleep(d)
	}
}

// Link wraps the dialing end of a connection so that every message it
// carries pays one jittered OneWay: a Write sleeps before it writes, a
// Read that returns bytes sleeps before it returns them. The accepting
// end is not wrapped, so a request/response exchange pays two. A
// message is a Write — the wire codec writes each frame in one — and a
// Read: reads of a frame too large for one, or of frames that queued up
// while the reader slept, are charged once per Read, not per frame.
func (s *Source) Link(c net.Conn) net.Conn { return &link{Conn: c, s: s} }

type link struct {
	net.Conn
	s *Source
}

func (l *link) Write(p []byte) (int, error) {
	l.s.sleep(l.s.m.OneWay)
	return l.Conn.Write(p)
}

func (l *link) Read(p []byte) (int, error) {
	n, err := l.Conn.Read(p)
	if n > 0 {
		l.s.sleep(l.s.m.OneWay)
	}
	return n, err
}

// heavyTailed stretches d by TailFactor with probability TailProb —
// the write-path straggler model.
func (s *Source) heavyTailed(d time.Duration) time.Duration {
	if s.m.TailProb <= 0 || s.m.TailFactor <= 1 {
		return d
	}
	s.mu.Lock()
	hit := s.rng.Float64() < s.m.TailProb
	s.mu.Unlock()
	if hit {
		return time.Duration(float64(d) * s.m.TailFactor)
	}
	return d
}

// CommitIO simulates the certifier's forced log write.
func (s *Source) CommitIO() { s.sleep(s.m.CommitIO) }

// Certify simulates the per-decision certification work, charged while
// the certifying sequencer's lock is held.
func (s *Source) Certify() { s.sleep(s.m.Certify) }

// Statement simulates per-statement DBMS execution cost.
func (s *Source) Statement() { s.sleep(s.m.StatementCPU) }

// ApplyWriteSet simulates applying one refresh writeset (heavy-tailed).
func (s *Source) ApplyWriteSet() { s.sleep(s.heavyTailed(s.m.ApplyWriteSet)) }

// applyBatchMarginal is the fraction of ApplyWriteSet each writeset
// after the first costs when a replica applies a contiguous run of
// refreshes in one engine critical section. Group-applying amortizes
// the per-commit overhead (log write, lock cycle, version publish)
// exactly like the certifier's group commit amortizes CommitIO; the
// per-row work still has to happen, which is what the marginal
// fraction charges.
const applyBatchMarginal = 0.4

// ApplyWriteSetBatch simulates group-applying n contiguous refresh
// writesets as one batch: the first writeset pays
// the full apply cost, each subsequent one only the marginal fraction,
// and the heavy tail is drawn once for the whole batch — a checkpoint
// stall hits the group, not every member (the group-commit shape).
func (s *Source) ApplyWriteSetBatch(n int) {
	if n <= 0 {
		return
	}
	if n == 1 {
		s.ApplyWriteSet()
		return
	}
	d := time.Duration(float64(s.m.ApplyWriteSet) * (1 + applyBatchMarginal*float64(n-1)))
	s.sleep(s.heavyTailed(d))
}

// LocalCommit simulates a local, non-forced commit (heavy-tailed).
func (s *Source) LocalCommit() { s.sleep(s.heavyTailed(s.m.LocalCommit)) }

// Think blocks for an exponentially distributed think time with the
// given mean (scaled), matching the paper's negative-exponential
// client think time.
func (s *Source) Think(mean time.Duration) {
	if mean <= 0 {
		return
	}
	scale := s.m.Scale
	if scale == 0 {
		scale = 1.0
	}
	s.mu.Lock()
	d := time.Duration(s.rng.ExpFloat64() * float64(mean) * scale)
	s.mu.Unlock()
	// Cap at 5× the mean so a single unlucky draw cannot stall a
	// closed-loop client for an entire measurement window.
	if max := time.Duration(5 * float64(mean) * scale); d > max {
		d = max
	}
	if d > 0 {
		time.Sleep(d)
	}
}
