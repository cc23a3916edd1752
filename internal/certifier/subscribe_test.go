package certifier

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sconrep/internal/writeset"
)

// drain takes everything queued in sub without blocking.
func drain(sub *Subscription) []Refresh {
	if sub.QueueLen() == 0 {
		return nil
	}
	batch, _ := sub.Take()
	return batch
}

// TestSubscribeBackfillsFromAfter: a subscription opens with every
// version in (after, Floor], the subscriber's own commits and their
// origins included, over one shard and over four.
func TestSubscribeBackfillsFromAfter(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := historyCertifier(t, shards, 12) // every commit's origin is 0
			for after := uint64(0); after <= 13; after++ {
				sub, err := c.Subscribe(0, nil, after)
				if err != nil {
					t.Fatal(err)
				}
				if floor, err := sub.Floor(); floor != 12 || err != nil {
					t.Fatalf("Floor() = %d, %v, want 12", floor, err)
				}
				got := drain(sub)
				if want := int(max(12, after) - after); len(got) != want {
					t.Fatalf("after %d: backfill of %d refreshes, want %d", after, len(got), want)
				}
				for i, r := range got {
					if r.Version != after+uint64(i)+1 || r.Origin != 0 || r.TxnID != r.Version || r.WS == nil {
						t.Fatalf("after %d: backfill[%d] = %+v", after, i, r)
					}
				}
			}
		})
	}
}

// TestSubscribeBackfillMarksUnservedShards: a partial subscription's
// backfill carries skip markers for versions certified entirely on
// shards it does not serve — the rule the fan-out applies.
func TestSubscribeBackfillMarksUnservedShards(t *testing.T) {
	c := historyCertifier(t, 4, 8) // commit i writes t(i mod 4), on shard i mod 4
	sub, err := c.Subscribe(1, []int{1, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(sub)
	if len(got) != 8 {
		t.Fatalf("backfill of %d refreshes, want 8", len(got))
	}
	for _, r := range got {
		if served := r.Version%2 == 1; served != (r.WS != nil) {
			t.Fatalf("version %d: writeset %v, served %v", r.Version, r.WS, served)
		}
	}
}

// TestSubscribeRefusedBelowTrim: a subscriber whose version is below
// the trim floor is refused with a *TrimmedError and nothing is
// registered — the subscription it would have replaced stays — while
// one at the floor is served the retained suffix.
func TestSubscribeRefusedBelowTrim(t *testing.T) {
	c := historyCertifier(t, 1, 10)
	live := subscribe(t, c, 2)
	c.TrimBelow(6)

	_, err := c.Subscribe(2, nil, 5)
	var trimmed *TrimmedError
	if !errors.As(err, &trimmed) || trimmed.After != 5 || trimmed.Floor != 6 {
		t.Fatalf("Subscribe below the trim floor: %v, want TrimmedError{After: 5, Floor: 6}", err)
	}
	if ids := c.Replicas(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("subscribed replicas %v after a refusal, want the earlier subscription [2]", ids)
	}
	if _, err := c.Certify(1, 11, 10, ws("k")); err != nil {
		t.Fatal(err)
	}
	if got := drain(live); len(got) != 1 || got[0].Version != 11 {
		t.Fatalf("the refused subscription displaced the live one: it received %v", got)
	}

	sub, err := c.Subscribe(2, nil, 6)
	if err != nil {
		t.Fatalf("Subscribe at the trim floor: %v", err)
	}
	if got := drain(sub); len(got) != 5 || got[0].Version != 7 {
		t.Fatalf("backfill from the trim floor = %v, want versions 7..11", got)
	}
}

// TestSubscribeBackfillIsExact races subscriptions against concurrent
// single- and cross-shard certifications on four shards: every
// subscription must receive every version above its starting point,
// backfill and fan-out together, with no hole. No version may be lost
// between the history a subscription reads and the fan-out it is
// registered for — the window History closed by waiting for seals.
func TestSubscribeBackfillIsExact(t *testing.T) {
	c := historyCertifier(t, 4, 0)
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				items := []writeset.Item{{Table: fmt.Sprintf("t%d", (w+i)%4), Key: fmt.Sprintf("w%d-%d", w, i), Op: writeset.OpInsert, Row: []any{"x"}}}
				if i%5 == 0 { // cross-shard
					items = append(items, writeset.Item{Table: fmt.Sprintf("t%d", (w+i+1)%4), Key: fmt.Sprintf("x%d-%d", w, i), Op: writeset.OpInsert, Row: []any{"x"}})
				}
				if d, err := c.Certify(w, uint64(i+1), c.Version(), &writeset.WriteSet{Items: items}); err != nil || !d.Commit {
					t.Errorf("certify: %+v, %v", d, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	const final = writers * perWriter
	rounds := 0
	for running := true; running; rounds++ {
		select {
		case <-done:
			running = false
		default:
		}
		after := c.Version() / 2
		sub, err := c.Subscribe(9, nil, after)
		if err != nil {
			t.Fatal(err)
		}
		floor, _ := sub.Floor()
		// The stream is live: read on until the floor and a little past it.
		want := min(floor+16, final)
		stuck := time.AfterFunc(10*time.Second, sub.Close)
		seen := make(map[uint64]bool)
		for next := after + 1; next <= want; {
			batch, ok := sub.Take()
			if !ok {
				t.Fatalf("subscription from %d (floor %d): version %d never arrived", after, floor, next)
			}
			for _, r := range batch {
				seen[r.Version] = true
			}
			for seen[next] {
				next++
			}
		}
		stuck.Stop()
	}
	if rounds < 2 {
		t.Fatalf("only %d subscriptions raced the writers", rounds)
	}
}
