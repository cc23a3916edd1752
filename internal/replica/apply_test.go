package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

// TestApplySameKeyAdjacentVersions pushes one 32-refresh backlog, which
// the drainer cuts into batches of maxApplyBatch, with same-key writes
// at adjacent versions inside a batch and across batch boundaries. A
// record's writes must link in version order: every version must read
// what applying the writesets one at a time would leave there — a
// mis-linked chain can leave the final heads right.
func TestApplySameKeyAdjacentVersions(t *testing.T) {
	// Chains 1-1-1 and 2-2 up front, key 1 again at the tail (three
	// batches later), independents in between.
	chains := []int64{1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 0}
	for k := int64(10); len(chains) < 31; k++ {
		chains = append(chains, k)
	}
	chains = append(chains, 1)
	for name, keys := range map[string][]int64{
		"chains":     chains,
		"pure chain": make([]int64, 32), // every refresh writes key 0
	} {
		t.Run(name, func(t *testing.T) {
			eng := storage.NewEngine()
			loadKV(t, eng) // Vlocal = 1
			fake := newFakeCert()
			r := New(Config{ID: 0, EarlyCert: true}, eng, fake)
			defer r.Crash()

			var backlog []certifier.Refresh
			for i, k := range keys {
				v := uint64(i + 2)
				backlog = append(backlog, mkRefresh(t, eng, v, k, fmt.Sprintf("v%d", v)))
			}
			fake.queue.Put(backlog...)
			waitVersion(t, r, uint64(len(keys)+1))
			if got := r.AppliedRefreshes(); got != int64(len(keys)) {
				t.Fatalf("applied refreshes = %d, want %d", got, len(keys))
			}

			want := map[int64]string{}
			for k := int64(0); k < 10; k++ {
				want[k] = "init"
			}
			for i, k := range keys {
				v := uint64(i + 2)
				want[k] = fmt.Sprintf("v%d", v)
				tx, err := eng.BeginAt(v)
				if err != nil {
					t.Fatal(err)
				}
				kvs, err := tx.ScanAll("kv")
				if err != nil {
					t.Fatal(err)
				}
				got := map[int64]string{}
				for _, kv := range kvs {
					got[kv.Row[0].(int64)] = kv.Row[1].(string)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("version %d reads %v, want %v", v, got, want)
				}
			}
		})
	}
}

// TestApplyBatchRefusesMisplacedStart proves the strict ordering check:
// a batch that does not start at Vlocal+1 is refused with
// ErrBadVersion, installs nothing and counts nothing.
func TestApplyBatchRefusesMisplacedStart(t *testing.T) {
	eng := storage.NewEngine()
	loadKV(t, eng) // Vlocal = 1
	r := New(Config{ID: 0}, eng, newFakeCert())
	defer r.Crash()
	wss := make([]*writeset.WriteSet, maxApplyBatch)
	for i := range wss {
		wss[i] = mkRefresh(t, eng, 0, int64(i), "x").WS
	}
	for _, start := range []uint64{1, 3} { // behind Vlocal+1, and past it
		if err := r.applyBatch(wss, start); !errors.Is(err, storage.ErrBadVersion) {
			t.Fatalf("applyBatch at %d: err = %v, want ErrBadVersion", start, err)
		}
	}
	if r.Version() != 1 || r.AppliedRefreshes() != 0 {
		t.Fatalf("refused batch left Vlocal = %d, applied = %d", r.Version(), r.AppliedRefreshes())
	}
	if err := r.applyBatch(wss, 2); err != nil {
		t.Fatal(err)
	}
	if r.Version() != 1+maxApplyBatch || r.AppliedRefreshes() != maxApplyBatch {
		t.Fatalf("Vlocal = %d, applied = %d, want %d, %d", r.Version(), r.AppliedRefreshes(), 1+maxApplyBatch, maxApplyBatch)
	}
}

// applyCrashSeeds are the default seeds for the randomized
// crash-mid-drain test; SCONREP_PARALLEL_SEED replays one.
var applyCrashSeeds = []int64{1, 2, 3, 7, 11}

// TestApplyCrashBetweenPublishes is the seed-replayable crash
// regression: a seeded workload over a hot keyspace (so same-key
// refreshes land at adjacent versions inside one batch) is pushed in
// random chunks; the replica crashes at a random point — while the
// drainer is working through the backlog, so between the publishes of
// two batches or with one in flight — and recovers through History.
// The final state must match the serial oracle exactly, with every
// version applied exactly once.
//
// Replay one schedule with SCONREP_PARALLEL_SEED=<seed>.
func TestApplyCrashBetweenPublishes(t *testing.T) {
	seeds := applyCrashSeeds
	if s := os.Getenv("SCONREP_PARALLEL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SCONREP_PARALLEL_SEED: %v", err)
		}
		seeds = []int64{v}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			eng := storage.NewEngine()
			loadKV(t, eng) // Vlocal = 1
			fake := newFakeCert()
			r := New(Config{ID: 0, EarlyCert: true}, eng, fake)
			defer r.Crash()

			const last = uint64(601)
			oracle := map[int64]string{}
			var backlog []certifier.Refresh
			for v := uint64(2); v <= last; v++ {
				k := int64(rng.Intn(10)) // hot keyspace: adjacent same-key versions are common
				val := fmt.Sprintf("s%d-v%d", seed, v)
				ref := mkRefresh(t, eng, v, k, val)
				backlog = append(backlog, ref)
				oracle[k] = val
				fake.mu.Lock()
				fake.history = append(fake.history, ref)
				fake.mu.Unlock()
			}

			crashAt := rng.Intn(len(backlog))
			pushed := 0
			crashed := false
			for pushed < len(backlog) {
				n := 1 + rng.Intn(40)
				if pushed+n > len(backlog) {
					n = len(backlog) - pushed
				}
				fake.mu.Lock()
				q := fake.queue
				fake.mu.Unlock()
				q.Put(backlog[pushed : pushed+n]...)
				pushed += n
				if !crashed && pushed > crashAt {
					// Let the drainer get into the backlog, then pull the plug:
					// the watermark stops at whichever batch tail it reached.
					time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
					r.Crash()
					crashed = true
					if err := r.Recover(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !crashed {
				t.Fatal("crash point never reached")
			}

			waitVersion(t, r, last)
			if r.Version() != last {
				t.Fatalf("Vlocal = %d, want %d", r.Version(), last)
			}
			for k, want := range oracle {
				if got := readKV(t, r, k); got != want {
					t.Fatalf("seed %d: kv[%d] = %q, want %q (replay with SCONREP_PARALLEL_SEED=%d)",
						seed, k, got, want, seed)
				}
			}
			// Exactly-once accounting: a double apply would either panic
			// (version-order check) or inflate this counter.
			if got := r.AppliedRefreshes(); got != int64(last-1) {
				t.Fatalf("seed %d: applied refreshes = %d, want %d (replay with SCONREP_PARALLEL_SEED=%d)",
					seed, got, last-1, seed)
			}
		})
	}
}
