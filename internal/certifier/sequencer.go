package certifier

import (
	"sort"
	"sync"

	"sconrep/internal/latency"
	"sconrep/internal/wal"
	"sconrep/internal/writeset"
)

// sequencer is one shard's certification state: its own conflict
// index, history suffix, decision memo, and group-commit log stream.
// Single-shard transactions touch exactly one sequencer's lock;
// cross-shard transactions lock every involved sequencer in ascending
// shard-ID order (the reserve step), so two conflicting transactions —
// which necessarily share a table, hence a shard — always serialize on
// that shard's lock, while disjoint-shard commits never contend.
type sequencer struct {
	id int
	// mu serializes this shard's certification state. Cross-shard
	// paths hold several sequencer locks at once, always taken in
	// ascending shard-ID order (sconrep-vet lockorder enforces the
	// tagged loops).
	// locks self ascending
	// locks after Certifier.mu
	mu sync.Mutex
	// index is the shard's conflict index over the certification
	// window. Cross-shard writesets are indexed in full on every
	// involved shard: redundant entries cannot produce false positives
	// (a record collision implies a table collision implies this
	// shard), and they make each shard's FCW test self-contained.
	// guarded by mu
	index *writeset.Index
	// history is the shard's slice of the refresh log, version-sorted
	// by construction (versions are drawn from the global counter while
	// this lock is held). Cross-shard decisions live only in their home
	// shard (lowest involved ID). A nil writeset marks a version whose
	// record was lost with the certifier (crash before the group flush;
	// the transaction was never acknowledged or fanned out) — replicas
	// advance past it without applying anything.
	// guarded by mu
	history []historyEntry
	// tableVers is the latest commit version per table owned by this
	// shard.
	// guarded by mu
	tableVers map[string]uint64
	// memo holds recent commit decisions for retried certification
	// requests, keyed by the transaction's home shard.
	// guarded by mu
	memo map[memoKey]memoEntry
	// memoRing is the memo's FIFO eviction ring: a fixed-capacity
	// buffer reused circularly. (The previous implementation re-sliced
	// an append-only queue — memoOrder = memoOrder[1:] — which pinned
	// the ever-growing backing array and every evicted key in it.)
	// guarded by mu
	memoRing []memoKey
	// memoHead indexes the oldest ring slot once the ring is full.
	// guarded by mu
	memoHead int
	// seq is the shard's durable log sequence: the number of decisions
	// this shard has handed to its group log. The group log orders and
	// batches by seq, so each shard's durability pipeline is
	// independent of every other shard's.
	// guarded by mu
	seq  uint64
	glog *groupLog
}

func newSequencer(id int, log *wal.Log, lat *latency.Source) *sequencer {
	return &sequencer{
		id:        id,
		index:     writeset.NewIndex(),
		tableVers: make(map[string]uint64),
		memo:      make(map[memoKey]memoEntry),
		glog:      newGroupLog(log, lat),
	}
}

// memoPut records a commit decision, evicting the oldest memo entry
// once the ring is at capacity. Caller holds s.mu.
func (s *sequencer) memoPut(k memoKey, e memoEntry) {
	if len(s.memoRing) < memoCap {
		s.memoRing = append(s.memoRing, k)
	} else {
		delete(s.memo, s.memoRing[s.memoHead])
		s.memoRing[s.memoHead] = k
		s.memoHead++
		if s.memoHead == memoCap {
			s.memoHead = 0
		}
	}
	s.memo[k] = e
}

// historyAfter returns the shard's history entries with versions above
// after, in version order. Caller holds s.mu; the slice aliases the
// history, so a caller that keeps it past the lock copies it.
func (s *sequencer) historyAfter(after uint64) []historyEntry {
	i := sort.Search(len(s.history), func(i int) bool { return s.history[i].version > after })
	return s.history[i:]
}
