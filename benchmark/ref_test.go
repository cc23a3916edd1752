package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRefLoadCountsRoundTrips(t *testing.T) {
	r, err := newRefLoad()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if rate := r.run(20 * time.Millisecond); rate <= 0 {
		t.Errorf("reference load made %g round trips/s, want > 0", rate)
	}
}

// TestTurnstileParksSessions: once shut returns no session is inside a
// transaction, and all of them go on after open.
func TestTurnstileParksSessions(t *testing.T) {
	const sessions = 3
	ts := newTurnstile()
	var inTxn, done atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ts.pass()
				inTxn.Add(1)
				done.Add(1)
				inTxn.Add(-1)
			}
		}()
	}
	for round := 0; round < 50; round++ {
		ts.shut(sessions)
		before := done.Load()
		if n := inTxn.Load(); n != 0 {
			t.Fatalf("round %d: %d sessions inside a transaction while shut", round, n)
		}
		if after := done.Load(); after != before {
			t.Fatalf("round %d: %d transactions finished while shut", round, after-before)
		}
		ts.open()
		for done.Load() == before {
			time.Sleep(10 * time.Microsecond)
		}
	}
	stop.Store(true)
	wg.Wait()
}
