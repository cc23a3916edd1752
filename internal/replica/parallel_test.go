package replica

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/obs"
	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

// wideProcs lets applyBatch cut a batch into four runs whatever the
// host: the width is bounded by GOMAXPROCS, which may exceed the
// processor count.
func wideProcs(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelApplySameKeyAdjacentVersions drives the conflict-graph
// edge case deterministically: one collected batch holds same-key
// chains at adjacent versions interleaved with independent keys. The
// chains must apply in version order (inside a run, and across runs
// through the dependency edges), the independents in any order, and
// the final state must equal the serial oracle.
func TestParallelApplySameKeyAdjacentVersions(t *testing.T) {
	wideProcs(t)
	eng := storage.NewEngine()
	loadKV(t, eng) // Vlocal = 1
	fake := newFakeCert()
	r := New(Config{ID: 0, EarlyCert: true, ApplyWorkers: 4, MaxApplyBatch: 32}, eng, fake)
	defer r.Crash()

	// Keys per version: chains 1-1-1 and 2-2 up front, key 1 again at
	// the tail, independents in between — 32 writesets with a critical
	// path of 4, so two runs with key 1 in the first and the last.
	keys := []int64{1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 0}
	for k := int64(10); len(keys) < 31; k++ {
		keys = append(keys, k)
	}
	keys = append(keys, 1)
	oracle := map[int64]string{}
	var batch []certifier.Refresh
	for i, k := range keys {
		v := uint64(i + 2)
		val := fmt.Sprintf("v%d", v)
		batch = append(batch, mkRefresh(t, eng, v, k, val))
		oracle[k] = val
	}
	fake.queue.push(batch...)

	last := uint64(len(keys) + 1)
	waitVersion(t, r, last)
	for k, want := range oracle {
		if got := readKV(t, r, k); got != want {
			t.Fatalf("kv[%d] = %q, want %q", k, got, want)
		}
	}
	if got := r.AppliedRefreshes(); got != int64(len(keys)) {
		t.Fatalf("applied refreshes = %d, want %d", got, len(keys))
	}
}

// TestParallelApplyPureChain proves a fully-conflicting batch (every
// refresh writes the same key) at cap 4 is one run: the conflict graph
// is built, reports a parallelism of 1, and the batch lands correctly.
func TestParallelApplyPureChain(t *testing.T) {
	wideProcs(t)
	eng := storage.NewEngine()
	loadKV(t, eng) // Vlocal = 1
	fake := newFakeCert()
	r := New(Config{ID: 0, EarlyCert: true, ApplyWorkers: 4, MaxApplyBatch: 32}, eng, fake)
	defer r.Crash()
	reg := obs.NewRegistry()
	r.EnableObs(reg, nil)

	var batch []certifier.Refresh
	const last = uint64(33) // 32 refreshes: long enough to be cut in two
	for v := uint64(2); v <= last; v++ {
		batch = append(batch, mkRefresh(t, eng, v, 7, fmt.Sprintf("v%d", v)))
	}
	fake.queue.push(batch...)
	waitVersion(t, r, last)
	if got, want := readKV(t, r, 7), fmt.Sprintf("v%d", last); got != want {
		t.Fatalf("kv[7] = %q, want %q", got, want)
	}
	if got := r.AppliedRefreshes(); got != int64(last-1) {
		t.Fatalf("applied refreshes = %d, want %d", got, last-1)
	}
	var text bytes.Buffer
	reg.WritePrometheus(&text)
	for _, want := range []string{
		`sconrep_replica_apply_parallelism_bucket{replica="0",le="1"} 1`,
		`sconrep_replica_apply_parallelism_count{replica="0"} 1`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("metrics lack %q:\n%s", want, text.String())
		}
	}
}

// TestApplyBatchRefusesMisplacedStart proves the strict ordering check
// guards every schedule: a batch that does not start at Vlocal+1 is
// refused with ErrBadVersion, installs nothing and counts nothing,
// wide (cap 4) as well as at cap 1.
func TestApplyBatchRefusesMisplacedStart(t *testing.T) {
	wideProcs(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("cap=%d", workers), func(t *testing.T) {
			eng := storage.NewEngine()
			loadKV(t, eng) // Vlocal = 1
			r := New(Config{ID: 0, ApplyWorkers: workers, MaxApplyBatch: 64}, eng, newFakeCert())
			defer r.Crash()
			wss := make([]*writeset.WriteSet, 64)
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
			if r.Version() != 65 || r.AppliedRefreshes() != 64 {
				t.Fatalf("Vlocal = %d, applied = %d, want 65, 64", r.Version(), r.AppliedRefreshes())
			}
		})
	}
}

// TestParallelApplyCrossRunConflict drives the one ordering applyBatch
// has to enforce between goroutines: a record written in the first and
// in the last of four runs and nowhere between, at random positions,
// the other 62 writesets pairwise disjoint. The last run must not link
// its write before the first run's, and a reader snapshotting during
// the apply must always find the hot record at the newest write at or
// below its snapshot. Run under -race this is also the happens-before
// proof for the installed hand-off.
func TestParallelApplyCrossRunConflict(t *testing.T) {
	wideProcs(t)
	const (
		n      = 64
		rounds = 300
		hot    = int64(5)
	)
	rng := rand.New(rand.NewSource(7))
	eng := storage.NewEngine()
	loadKV(t, eng) // Vlocal = 1
	fake := newFakeCert()
	r := New(Config{ID: 0, ApplyWorkers: 4, MaxApplyBatch: n}, eng, fake)
	defer r.Crash()
	hotKey := mkRefresh(t, eng, 0, hot, "").WS.Items[0].Key

	var (
		mu        sync.Mutex
		hotWrites []uint64 // versions writing the hot record, ascending
	)
	newestHotAt := func(snap uint64) string {
		mu.Lock()
		defer mu.Unlock()
		i := sort.Search(len(hotWrites), func(i int) bool { return hotWrites[i] > snap })
		if i == 0 {
			return "init"
		}
		return fmt.Sprintf("v%d", hotWrites[i-1])
	}
	checkHot := func(tx *storage.Txn) error {
		row, ok, err := tx.Get("kv", hotKey)
		if err != nil || !ok {
			return fmt.Errorf("snapshot %d: hot record: %v, %v", tx.Snapshot(), ok, err)
		}
		if got, want := row[1].(string), newestHotAt(tx.Snapshot()); got != want {
			return fmt.Errorf("snapshot %d reads hot record %q, want %q", tx.Snapshot(), got, want)
		}
		return nil
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := eng.Begin()
			err := checkHot(tx)
			tx.Abort()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	next := uint64(2)
	for round := 0; round < rounds; round++ {
		first, last := rng.Intn(n/4), n-n/4+rng.Intn(n/4)
		batch := make([]certifier.Refresh, n)
		for i := range batch {
			v := next + uint64(i)
			k := int64(100 + i)
			if i == first || i == last {
				k = hot
			}
			batch[i] = mkRefresh(t, eng, v, k, fmt.Sprintf("v%d", v))
		}
		mu.Lock()
		hotWrites = append(hotWrites, next+uint64(first), next+uint64(last))
		mu.Unlock()
		fake.queue.push(batch...)
		next += n
		waitVersion(t, r, next-1)
	}
	close(stop)
	readers.Wait()
	// A mis-linked chain can leave the head right: read every version.
	for v := uint64(1); v < next; v++ {
		tx, err := eng.BeginAt(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkHot(tx); err != nil {
			t.Fatal(err)
		}
	}
}

// parallelChaosSeeds are the default seeds for the randomized
// crash-mid-parallel-apply test; SCONREP_PARALLEL_SEED replays one.
var parallelChaosSeeds = []int64{1, 2, 3, 7, 11}

// TestParallelApplyCrashBetweenPublishes is the seed-replayable
// conflict-graph edge-case regression: a seeded workload over a hot
// keyspace (so same-key refreshes land at adjacent versions inside one
// parallel batch) is pushed in random chunks; the replica crashes at a
// random point — with the progressive watermark, that is between the
// publishes of an in-flight batch — and recovers through History. The
// final state must match the serial oracle exactly, with every version
// applied exactly once.
//
// Replay one schedule with SCONREP_PARALLEL_SEED=<seed>.
func TestParallelApplyCrashBetweenPublishes(t *testing.T) {
	seeds := parallelChaosSeeds
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
			r := New(Config{ID: 0, EarlyCert: true, ApplyWorkers: 4, MaxApplyBatch: 64}, eng, fake)
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
				q.push(backlog[pushed : pushed+n]...)
				pushed += n
				if !crashed && pushed > crashAt {
					// Let the drainer get a batch in flight, then pull the
					// plug mid-apply: the watermark stops wherever the
					// contiguous installed prefix happened to be.
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

// kvValues returns the kv table's values in key order as tx sees them.
func kvValues(t *testing.T, tx *storage.Txn) []any {
	t.Helper()
	kvs, err := tx.ScanAll("kv")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]any, len(kvs))
	for i, kv := range kvs {
		vals[i] = kv.Row[1]
	}
	return vals
}

// TestParallelMatchesSerial replays one seeded mixed workload through a
// wide replica (ApplyWorkers=4) and the cap-1 reference and requires
// every version of the two engines to read the same ten values — a
// mis-linked chain can leave the final heads right.
func TestParallelMatchesSerial(t *testing.T) {
	wideProcs(t)
	rng := rand.New(rand.NewSource(42))
	const last = uint64(301)
	type step struct {
		k   int64
		val string
	}
	steps := make([]step, 0, last-1)
	for v := uint64(2); v <= last; v++ {
		steps = append(steps, step{k: int64(rng.Intn(10)), val: fmt.Sprintf("v%d", v)})
	}

	run := func(workers int) *Replica {
		eng := storage.NewEngine()
		loadKV(t, eng)
		fake := newFakeCert()
		r := New(Config{ID: 0, EarlyCert: true, ApplyWorkers: workers, MaxApplyBatch: 64}, eng, fake)
		var batch []certifier.Refresh
		for i, s := range steps {
			batch = append(batch, mkRefresh(t, eng, uint64(i+2), s.k, s.val))
		}
		fake.queue.push(batch...)
		waitVersion(t, r, last)
		return r
	}
	par, ser := run(4), run(1)
	defer par.Crash()
	defer ser.Crash()
	if par.Version() != ser.Version() {
		t.Fatalf("versions diverge: %d vs %d", par.Version(), ser.Version())
	}
	for v := uint64(1); v <= last; v++ {
		pt, err := par.Engine().BeginAt(v)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ser.Engine().BeginAt(v)
		if err != nil {
			t.Fatal(err)
		}
		p, s := kvValues(t, pt), kvValues(t, st)
		if len(p) != 10 || fmt.Sprint(p) != fmt.Sprint(s) {
			t.Fatalf("version %d diverges: wide %v vs cap-1 %v", v, p, s)
		}
	}
}
