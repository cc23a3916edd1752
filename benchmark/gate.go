package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/history"
	"sconrep/internal/pstore"
	"sconrep/internal/storage"
	"sconrep/internal/workload/micro"
)

// quiesceTimeout bounds how long replicas may take to reach the
// certifier's version once the clients have stopped.
const quiesceTimeout = 20 * time.Second

// quiesce waits until every replica has applied everything the
// certifier decided and returns that version.
func quiesce(c *cluster.Cluster) (uint64, error) {
	target := c.Certifier().Version()
	deadline := time.Now().Add(quiesceTimeout)
	for i := 0; i < c.NumReplicas(); i++ {
		for c.Replica(i).Version() < target {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("gate: replica %d stuck at version %d, certifier at %d", i, c.Replica(i).Version(), target)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return target, nil
}

// tableHashes returns one content hash per table of eng, in sorted
// table order.
func tableHashes(eng *storage.Engine) ([][32]byte, error) {
	var hashes [][32]byte
	tx := eng.Begin()
	defer tx.Abort()
	for _, t := range eng.TablesSorted() {
		rows, err := tx.ScanAll(t)
		if err != nil {
			return nil, fmt.Errorf("gate: scan %s: %w", t, err)
		}
		h := sha256.New()
		for _, kv := range rows {
			fmt.Fprintf(h, "%q", kv.Key)
			for _, v := range kv.Row {
				fmt.Fprintf(h, "|%T:%v", v, v)
			}
			h.Write([]byte{'\n'})
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		hashes = append(hashes, sum)
	}
	return hashes, nil
}

// microValSum is Σ val over the micro tables of eng (val is column 1).
func microValSum(eng *storage.Engine) (int64, error) {
	tx := eng.Begin()
	defer tx.Abort()
	var sum int64
	for t := 0; t < micro.NumTables; t++ {
		rows, err := tx.ScanAll(microTable(t))
		if err != nil {
			return 0, fmt.Errorf("gate: scan %s: %w", microTable(t), err)
		}
		for _, kv := range rows {
			sum += kv.Row[1].(int64)
		}
	}
	return sum, nil
}

// loadedValSum is Σ val over the freshly loaded micro tables: every
// table holds val = id for id in [0, rows).
func loadedValSum() int64 {
	n := int64(microScale.RowsPerTable)
	return micro.NumTables * n * (n - 1) / 2
}

// checkState is the correctness gate after a run: replicas converged
// on the certifier's version, hold identical tables, and (micro
// workloads) lost no acknowledged update.
func checkState(e *env, ackedUpdates int64) error {
	c := e.c
	target, err := quiesce(c)
	if err != nil {
		return err
	}
	for i := 0; i < c.NumReplicas(); i++ {
		if v := c.Replica(i).Version(); v != target {
			return fmt.Errorf("gate: replica %d at version %d, certifier at %d", i, v, target)
		}
	}
	want, err := tableHashes(c.Replica(0).Engine())
	if err != nil {
		return err
	}
	for i := 1; i < c.NumReplicas(); i++ {
		got, err := tableHashes(c.Replica(i).Engine())
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("gate: replica %d has %d tables, replica 0 has %d", i, len(got), len(want))
		}
		for t := range want {
			if got[t] != want[t] {
				return fmt.Errorf("gate: table %d content differs between replica 0 and replica %d", t, i)
			}
		}
	}
	if !e.sp.tpcw {
		// The replicas hold identical tables, so one of them speaks for all.
		sum, err := microValSum(c.Replica(0).Engine())
		if err != nil {
			return err
		}
		if exp := loadedValSum() + ackedUpdates; sum != exp {
			return fmt.Errorf("gate: lost-update oracle: Σval = %d, want %d (loaded %d + %d acknowledged updates)",
				sum, exp, loadedValSum(), ackedUpdates)
		}
	}
	return nil
}

// checkHistory runs the history oracles over a traced run's events.
func checkHistory(c *cluster.Cluster) error {
	events := c.Recorder().Events()
	if v := history.CheckVersionOrder(events); len(v) != 0 {
		return fmt.Errorf("gate: %d version-order violations, first: %v", len(v), v[0])
	}
	if v := history.CheckStrong(events); len(v) != 0 {
		return fmt.Errorf("gate: %d strong-consistency violations, first: %v", len(v), v[0])
	}
	return nil
}

const (
	restartVictim  = numReplicas - 1
	restartUpdates = 512
)

// restartReplica measures a durable replica's disk restart and checks
// the recovered state: checkpoint the victim, commit restartUpdates
// further updates from one session (one more when the last TPC-W
// interaction commits twice), kill the victim, restart it and wait
// until it is back at the certifier's version. The restarted replica
// must then be byte-identical to its peers.
func restartReplica(e *env, seed int64) (time.Duration, error) {
	c := e.c
	if _, err := quiesce(c); err != nil {
		return 0, err
	}
	if err := c.Store(restartVictim).CheckpointNow(); err != nil {
		return 0, fmt.Errorf("gate: checkpoint before restart: %w", err)
	}
	s := c.SessionWithID("bench-restart")
	defer s.Close()
	cl := newClient(e.sp, c, seed, restartStream)
	goal := c.Certifier().Version() + restartUpdates
	for c.Certifier().Version() < goal {
		if !cl.next() {
			continue
		}
		out := cl.attempt(s, nil, spanRef{})
		if out.err != nil && !retryable(out.err) {
			return 0, fmt.Errorf("gate: update before restart: %w", out.err)
		}
	}
	final, err := quiesce(c)
	if err != nil {
		return 0, err
	}
	c.KillReplica(restartVictim)
	start := time.Now()
	if err := c.RestartReplica(restartVictim); err != nil {
		return 0, fmt.Errorf("gate: restart: %w", err)
	}
	deadline := start.Add(quiesceTimeout)
	for c.Replica(restartVictim).Version() < final {
		if time.Now().After(deadline) {
			return 0, errors.New("gate: restarted replica never caught up")
		}
		time.Sleep(100 * time.Microsecond)
	}
	took := time.Since(start)
	want, err := pstore.SnapshotAt(c.Replica(0).Engine(), final)
	if err != nil {
		return 0, err
	}
	for i := 1; i < c.NumReplicas(); i++ {
		got, err := pstore.SnapshotAt(c.Replica(i).Engine(), final)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(want, got) {
			return 0, fmt.Errorf("gate: replica %d is not byte-identical to replica 0 at version %d after the restart", i, final)
		}
	}
	return took, nil
}
