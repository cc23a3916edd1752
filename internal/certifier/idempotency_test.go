package certifier

import (
	"fmt"
	"testing"
)

// TestCertifyRetryIsIdempotent: a certify request retried after a lost
// response (same origin, txn ID, and snapshot) must return the
// original decision without assigning a second version.
func TestCertifyRetryIsIdempotent(t *testing.T) {
	c := New()
	d1, err := c.Certify(0, 7, 0, ws("a"))
	if err != nil || !d1.Commit {
		t.Fatalf("d1 = %+v, %v", d1, err)
	}
	d2, err := c.Certify(0, 7, 0, ws("a"))
	if err != nil || d2 != d1 {
		t.Fatalf("retry = %+v, %v; want memoized %+v", d2, err, d1)
	}
	if c.Version() != d1.Version {
		t.Fatalf("version advanced to %d on a retry", c.Version())
	}
	// A different snapshot under the same IDs is NOT a retry (txn ID
	// reuse after a replica restart): it certifies fresh.
	d3, err := c.Certify(0, 7, d1.Version, ws("a"))
	if err != nil || !d3.Commit || d3.Version == d1.Version {
		t.Fatalf("fresh certify = %+v, %v", d3, err)
	}
}

// TestCertifyMemoSkipsAborts: abort decisions are not memoized — the
// conflict index only grows, so re-certifying is safe and lets a
// genuinely new attempt with the same ID proceed.
func TestCertifyMemoSkipsAborts(t *testing.T) {
	c := New()
	if d, err := c.Certify(0, 1, 0, ws("a")); err != nil || !d.Commit {
		t.Fatalf("setup: %+v, %v", d, err)
	}
	// Conflicting certify aborts.
	if d, err := c.Certify(1, 2, 0, ws("a")); err != nil || d.Commit {
		t.Fatalf("conflict not aborted: %+v, %v", d, err)
	}
	// The same request with a fresh snapshot commits — no stale abort
	// memo in the way.
	if d, err := c.Certify(1, 2, c.Version(), ws("a")); err != nil || !d.Commit {
		t.Fatalf("re-certify after refresh: %+v, %v", d, err)
	}
}

// TestCertifyMemoEviction: the memo is bounded; old entries fall out
// FIFO and the certifier keeps working past the cap. The run goes well
// past 2×memoCap because the previous implementation kept len(memo)
// bounded while leaking the eviction queue's backing array
// (memoOrder = memoOrder[1:] pins one key per certification ever
// made); the ring buffer must keep every structure at exactly memoCap.
func TestCertifyMemoEviction(t *testing.T) {
	c := New()
	const n = 2*memoCap + memoCap/2
	for i := 0; i < n; i++ {
		snap := c.Version()
		d, err := c.Certify(0, uint64(i+1), snap, ws(fmt.Sprintf("k%d", i%64)))
		if err != nil || !d.Commit {
			t.Fatalf("certify %d: %+v, %v", i, d, err)
		}
	}
	s := c.seqs[0]
	if len(s.memo) != memoCap {
		t.Fatalf("memo has %d entries, want exactly cap %d", len(s.memo), memoCap)
	}
	if len(s.memoRing) != memoCap || cap(s.memoRing) > 2*memoCap {
		t.Fatalf("eviction ring len=%d cap=%d after %d certifications; the ring must stay at memoCap=%d",
			len(s.memoRing), cap(s.memoRing), n, memoCap)
	}
	// FIFO correctness: exactly the newest memoCap keys survive.
	if _, ok := s.memo[memoKey{0, n}]; !ok {
		t.Fatal("newest decision evicted")
	}
	if _, ok := s.memo[memoKey{0, n - memoCap}]; ok {
		t.Fatalf("key %d should have been evicted", n-memoCap)
	}
	if _, ok := s.memo[memoKey{0, n - memoCap + 1}]; !ok {
		t.Fatalf("key %d should still be memoized", n-memoCap+1)
	}
}

// TestAppliedIsCumulative: acknowledging version v clears the replica
// from every eager wait at or below v, so coalesced acks (ship only
// the max) release all earlier global-commit waiters.
func TestAppliedIsCumulative(t *testing.T) {
	c := New(WithEager())
	subscribe(t, c, 0)
	subscribe(t, c, 1)
	s2 := subscribe(t, c, 2) // the origin
	defer c.Unsubscribe(0)
	defer c.Unsubscribe(1)

	var versions []uint64
	for i := 0; i < 3; i++ {
		d, err := c.Certify(2, uint64(i+1), c.Version(), ws(fmt.Sprintf("k%d", i)))
		if err != nil || !d.Commit {
			t.Fatalf("certify %d: %+v, %v", i, d, err)
		}
		versions = append(versions, d.Version)
	}
	if v, _ := noticed(t, s2); v != 0 {
		t.Fatalf("global commit through %d before any ack", v)
	}
	// Each replica acks only the HIGHEST version, as the coalescing
	// wire client does.
	c.Applied(0, versions[2])
	c.Applied(1, versions[2])
	if v, _ := noticed(t, s2); v != versions[2] {
		t.Fatalf("cumulative ack released through %d, want %d", v, versions[2])
	}
}

// TestSubscriptionCancelRespectsReplacement: Cancel on a superseded
// subscription (the lease timer of a dead stream firing after the
// replica already resubscribed) must not tear down the live one.
func TestSubscriptionCancelRespectsReplacement(t *testing.T) {
	c := New()
	old := subscribe(t, c, 0)
	replacement := subscribe(t, c, 0) // replica reconnected
	old.Cancel()                      // stale lease fires afterwards

	if d, err := c.Certify(1, 1, 0, ws("a")); err != nil || !d.Commit {
		t.Fatalf("certify: %+v, %v", d, err)
	}
	got, ok := replacement.Take()
	if !ok || len(got) != 1 {
		t.Fatalf("live subscription lost its stream: %v, %v", got, ok)
	}
	// Cancel on the current subscription does unsubscribe.
	replacement.Cancel()
	if replicas := c.Replicas(); len(replicas) != 0 {
		t.Fatalf("replicas after cancel = %v", replicas)
	}
}
