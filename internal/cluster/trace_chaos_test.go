// Trace-completeness chaos: under fault-injected (delayed, jittered)
// links, every committed transaction's distributed span tree must
// still assemble without orphans — span context either rides a frame
// intact or the transaction it described never committed. Drop/dup
// faults are excluded: a dropped ack legitimately loses the client's
// root span while the commit proceeds, which is the documented
// at-least-once boundary, not a tracing bug.
package cluster_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/fault"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/storage"
	"sconrep/internal/wire"
	"sconrep/internal/workload/tpcw"
)

func TestChaosTraceCompleteness(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	for _, seed := range []int64{1, 4242} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runTraceChaos(t, seed)
		})
	}
}

func runTraceChaos(t *testing.T, seed int64) {
	// Delay-only schedule: frames arrive late but always arrive.
	inj := fault.New(seed, fault.Config{
		DelayProb: 0.25,
		MaxDelay:  2 * time.Millisecond,
	})
	inj.SetActive(false)
	c, err := cluster.NewNetworked(cluster.Config{
		Replicas: chaosReplicas,
		Mode:     core.Fine,
		Seed:     seed,
	}, cluster.NetConfig{
		DialerFor: func(link string) wire.Dialer {
			return wire.Dialer(inj.Dialer(link, nil))
		},
		Timeouts: wire.Timeouts{Call: 3 * time.Second, Idle: 2 * time.Second},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 80 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	colls := c.EnableDTrace(1 << 16)

	scale := tpcw.Scale{Items: 50, Customers: 20, Seed: 42}
	if err := c.LoadData(func(e *storage.Engine) error { return tpcw.Load(e, scale) }); err != nil {
		t.Fatal(err)
	}
	tpcw.RegisterAll(c)

	inj.SetActive(true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const ebs = 3
	for i := 0; i < ebs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eb := &tpcw.EB{Mix: tpcw.ShoppingMix(), Scale: scale, ThinkTime: 2 * time.Millisecond, Retries: 2}
			eb.Run(c, i, stop)
		}(i)
	}
	time.Sleep(700 * time.Millisecond)
	close(stop)
	wg.Wait()
	inj.SetActive(false)

	// Drain: every refresh applied everywhere ends every refresh.apply
	// span, and every end delivered — each browser's Close sent the end
	// its client held, and the gateway's are flushed: no transaction open
	// anywhere — every replica.txn span; only then is the full forest in
	// the collectors.
	target := c.Certifier().Version()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.FlushEnds()
		caughtUp := true
		for i := 0; i < chaosReplicas; i++ {
			if c.Replica(i).Version() < target || c.Replica(i).Active() != 0 {
				caughtUp = false
			}
		}
		if caughtUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never converged; cannot assess trace completeness")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)

	// Ring evictions would make completeness unfalsifiable.
	byTrace := make(map[dtrace.TraceID][]dtrace.Span)
	for node, coll := range colls {
		if d := coll.Dropped(); d != 0 {
			t.Fatalf("collector %s dropped %d spans; grow the test's ring", node, d)
		}
		for _, sp := range coll.Recent(0) {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
	}

	committed, updates := 0, 0
	for id, spans := range byTrace {
		var root *dtrace.Span
		for i := range spans {
			if spans[i].Name == "client.txn" {
				root = &spans[i]
			}
		}
		if root == nil || root.Attrs["outcome"] != "commit" {
			continue
		}
		committed++
		if orphans := dtrace.Orphans(spans); len(orphans) > 0 {
			t.Fatalf("trace %s: %d orphan span(s), first %q on %s (parent %s missing)",
				id, len(orphans), orphans[0].Name, orphans[0].Node, orphans[0].Parent)
		}
		var sawTxn, sawCommit bool
		applies := map[string]bool{}
		certified := false
		for _, sp := range spans {
			switch sp.Name {
			case "replica.txn":
				sawTxn = true
			case "replica.commit":
				sawCommit = true
			case "certifier.certify":
				if sp.Attrs["decision"] == "commit" {
					certified = true
				}
			case "refresh.apply":
				applies[sp.Node] = true
			}
		}
		if !sawTxn || !sawCommit {
			t.Fatalf("trace %s: committed but missing replica.txn/replica.commit (txn=%v commit=%v)",
				id, sawTxn, sawCommit)
		}
		if certified {
			updates++
			// The origin applies its own writes in the commit path; every
			// other replica must show the refresh application.
			if len(applies) != chaosReplicas-1 {
				t.Fatalf("trace %s: update applied on %d remote replicas, want %d (%v)",
					id, len(applies), chaosReplicas-1, applies)
			}
		}
	}
	t.Logf("seed=%d: %d committed traces (%d updates), all complete", seed, committed, updates)
	if committed < 10 || updates < 1 {
		t.Fatalf("vacuous run: %d committed traces, %d updates", committed, updates)
	}
}
