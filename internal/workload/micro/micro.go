// Package micro implements the §V-B micro-benchmark: four tables of
// 10,000 rows (integer key, integer field, 100-character text field);
// per table, one read-only transaction fetching a random row and one
// update transaction modifying a random row. The read/update mix is
// the experiment's control variable.
package micro

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// NumTables is fixed by the benchmark definition.
const NumTables = 4

// Scale controls table size; the paper uses 10,000 rows per table.
type Scale struct {
	RowsPerTable int
	Seed         int64
}

// DefaultScale matches the paper.
func DefaultScale() Scale { return Scale{RowsPerTable: 10000, Seed: 20100302} }

func tableName(i int) string { return fmt.Sprintf("micro%d", i) }

// Load creates and populates the four tables deterministically: each
// table's rows are one version, the tables in order, built into the
// empty engine e in one step (storage.Loader).
func Load(e *storage.Engine, s Scale) error {
	l, err := storage.NewLoader(schemas()...)
	if err != nil {
		return err
	}
	for t := 0; t < NumTables; t++ {
		l.Grow(tableName(t), s.RowsPerTable)
		if err := loadTable(l, t, s); err != nil {
			return err
		}
		l.Commit()
	}
	if err := l.Build(e); err != nil {
		return fmt.Errorf("micro: loading: %w", err)
	}
	return nil
}

// schemas returns the four tables' schemas, in table order.
func schemas() []*storage.Schema {
	out := make([]*storage.Schema, NumTables)
	for t := range out {
		out[t] = &storage.Schema{
			Table: tableName(t),
			Columns: []storage.Column{
				{Name: "id", Type: storage.TInt},
				{Name: "val", Type: storage.TInt},
				{Name: "txt", Type: storage.TString},
			},
			Key: []string{"id"},
		}
	}
	return out
}

// rowSink takes generated rows: a storage.Loader in Load, or a
// storage.Txn, which takes the same rows one Insert at a time.
type rowSink interface {
	Insert(table string, row []any) error
}

// loadTable puts table t's rows into sink, in key order.
func loadTable(sink rowSink, t int, s Scale) error {
	name, filler := tableName(t), strings.Repeat("x", 100)
	for i := 0; i < s.RowsPerTable; i++ {
		if err := sink.Insert(name, []any{int64(i), int64(i), filler}); err != nil {
			return err
		}
	}
	return nil
}

// Statements: one read and one update per table.
var (
	readStmts   [NumTables]*sql.Prepared
	updateStmts [NumTables]*sql.Prepared
)

func init() {
	for t := 0; t < NumTables; t++ {
		var err error
		readStmts[t], err = sql.Prepare(fmt.Sprintf(`SELECT val, txt FROM %s WHERE id = ?`, tableName(t)))
		if err != nil {
			panic(err)
		}
		updateStmts[t], err = sql.Prepare(fmt.Sprintf(`UPDATE %s SET val = val + 1 WHERE id = ?`, tableName(t)))
		if err != nil {
			panic(err)
		}
	}
}

// ReadTxnName / UpdateTxnName are the registered transaction
// identifiers the fine-grained mode resolves.
func ReadTxnName(table int) string   { return fmt.Sprintf("micro.read%d", table) }
func UpdateTxnName(table int) string { return fmt.Sprintf("micro.update%d", table) }

// RegisterAll registers the eight transactions' table-sets.
func RegisterAll(c *cluster.Cluster) {
	for t := 0; t < NumTables; t++ {
		c.RegisterTxn(ReadTxnName(t), readStmts[t])
		c.RegisterTxn(UpdateTxnName(t), updateStmts[t])
	}
}

// Client is one closed-loop micro-benchmark client issuing
// back-to-back transactions (no think time, per §V-B).
type Client struct {
	Scale Scale
	// UpdatePercent ∈ [0,100] selects the transaction mix.
	UpdatePercent int
	// Retries bounds retry attempts after aborts.
	Retries int
	// UpdateTables / ReadTables restrict which tables the client
	// touches (nil = all). The granularity ablation uses a disjoint
	// split so fine-grained synchronization has read-only tables to
	// exploit.
	UpdateTables []int
	ReadTables   []int
}

// Run drives the client until stop closes; returns completed
// transactions.
func (cl *Client) Run(c *cluster.Cluster, clientID int, stop <-chan struct{}) int {
	s := c.SessionWithID(fmt.Sprintf("micro-%d", clientID))
	defer s.Close()
	rng := rand.New(rand.NewSource(int64(clientID)*6364136223846793005 + cl.Scale.Seed))
	completed := 0
	for {
		select {
		case <-stop:
			return completed
		default:
		}
		isUpdate := rng.Intn(100) < cl.UpdatePercent
		table := cl.pickTable(rng, isUpdate)
		row := int64(rng.Intn(cl.Scale.RowsPerTable))
		err := cl.runOne(s, table, row, isUpdate)
		for attempt := 0; err != nil && attempt < cl.Retries && retryable(err); attempt++ {
			err = cl.runOne(s, table, row, isUpdate)
		}
		if err == nil {
			completed++
		}
	}
}

// pickTable selects a table honoring the client's restrictions.
func (cl *Client) pickTable(rng *rand.Rand, isUpdate bool) int {
	pool := cl.ReadTables
	if isUpdate {
		pool = cl.UpdateTables
	}
	if len(pool) == 0 {
		return rng.Intn(NumTables)
	}
	return pool[rng.Intn(len(pool))]
}

func (cl *Client) runOne(s *cluster.Session, table int, row int64, isUpdate bool) error {
	if isUpdate {
		tx, err := s.Begin(UpdateTxnName(table))
		if err != nil {
			return err
		}
		if _, err := tx.Exec(updateStmts[table], row); err != nil {
			tx.Abort()
			return err
		}
		_, err = tx.Commit()
		return err
	}
	tx, err := s.Begin(ReadTxnName(table))
	if err != nil {
		return err
	}
	if _, err := tx.Exec(readStmts[table], row); err != nil {
		tx.Abort()
		return err
	}
	_, err = tx.Commit()
	return err
}

func retryable(err error) bool {
	return errors.Is(err, replica.ErrCertifyConflict) || errors.Is(err, replica.ErrEarlyAbort)
}

// RunClients launches n clients for the given duration after a warm-up
// interval, resetting the cluster's collector at the measurement
// boundary. It returns when all clients have stopped.
func RunClients(c *cluster.Cluster, n int, cl Client, warmup, measure time.Duration) {
	stop := make(chan struct{})
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func(id int) {
			cl.Run(c, id, stop)
			done <- struct{}{}
		}(i)
	}
	time.Sleep(warmup)
	c.Collector().Reset()
	time.Sleep(measure)
	close(stop)
	for i := 0; i < n; i++ {
		<-done
	}
}
