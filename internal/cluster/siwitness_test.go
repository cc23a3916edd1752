package cluster_test

import (
	"fmt"
	"testing"

	"sconrep"
	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/storage"
)

// counterRow loads counter(id, n) with the row (1, 0).
func counterRow(e *storage.Engine) error {
	if err := e.CreateTable(&storage.Schema{
		Table:   "counter",
		Columns: []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "n", Type: storage.TInt}},
		Key:     []string{"id"},
	}); err != nil {
		return err
	}
	tx := e.Begin()
	if err := tx.Insert("counter", []any{int64(1), int64(0)}); err != nil {
		tx.Abort()
		return err
	}
	_, err := tx.CommitLocal()
	return err
}

// TestOpenSnapshotSurvivesCollection is Definition 1's snapshot read
// under collection, on one CSC replica: a transaction reads row 1 of
// counter, another session commits updates to that row, the cluster
// collects — through Cluster.VacuumAll, through DB.Vacuum, or by
// installing 1 000 updates and nothing else — and the transaction's next
// read must return the row at the value its snapshot saw.
func TestOpenSnapshotSurvivesCollection(t *testing.T) {
	type exec func(q string) (string, error)
	type session struct {
		begin func() (read exec, commit func() error)
		close func()
	}
	run := func(t *testing.T, newSession func() session, commits int, collect func()) {
		reader, writer := newSession(), newSession()
		defer reader.close()
		defer writer.close()
		read, done := reader.begin()
		const q = "SELECT n FROM counter WHERE id = 1"
		before, err := read(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < commits; i++ {
			update, commit := writer.begin()
			if _, err := update("UPDATE counter SET n = n + 1 WHERE id = 1"); err != nil {
				t.Fatal(err)
			}
			if err := commit(); err != nil {
				t.Fatal(err)
			}
		}
		collect()
		after, err := read(q)
		if err != nil {
			t.Fatal(err)
		}
		if after != before {
			t.Fatalf("the open transaction read %s, then %s after %d commits and a collection", before, after, commits)
		}
		if err := done(); err != nil {
			t.Fatal(err)
		}
	}

	onCluster := func(t *testing.T, commits int, vacuum bool) {
		c, err := cluster.New(cluster.Config{Replicas: 1, Mode: core.Coarse, Seed: 47})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.LoadData(counterRow); err != nil {
			t.Fatal(err)
		}
		newSession := func() session {
			s := c.NewSession()
			return session{
				begin: func() (exec, func() error) {
					tx, err := s.Begin("")
					if err != nil {
						t.Fatal(err)
					}
					read := func(q string) (string, error) {
						res, err := tx.ExecSQL(q)
						if err != nil {
							return "", err
						}
						return fmt.Sprint(res.Rows), nil
					}
					return read, func() error { _, err := tx.Commit(); return err }
				},
				close: s.Close,
			}
		}
		collect := func() {}
		if vacuum {
			collect = c.VacuumAll
		}
		run(t, newSession, commits, collect)
	}

	t.Run("VacuumAll", func(t *testing.T) { onCluster(t, 3, true) })
	t.Run("no call", func(t *testing.T) { onCluster(t, 1000, false) })
	t.Run("DB.Vacuum", func(t *testing.T) {
		db, err := sconrep.Open(sconrep.Config{Replicas: 1, Mode: sconrep.Coarse})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Bootstrap(func(b *sconrep.Boot) error {
			b.Exec("CREATE TABLE counter (id INT PRIMARY KEY, n INT)")
			b.Exec("INSERT INTO counter VALUES (1, 0)")
			return b.Err()
		}); err != nil {
			t.Fatal(err)
		}
		newSession := func() session {
			s := db.Session()
			return session{
				begin: func() (exec, func() error) {
					tx, err := s.Begin("")
					if err != nil {
						t.Fatal(err)
					}
					read := func(q string) (string, error) {
						res, err := tx.Exec(q)
						if err != nil {
							return "", err
						}
						return fmt.Sprint(res.Rows), nil
					}
					return read, tx.Commit
				},
				close: s.Close,
			}
		}
		run(t, newSession, 3, db.Vacuum)
	})
}
