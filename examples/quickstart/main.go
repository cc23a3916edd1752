// Command quickstart demonstrates the public API end to end: open a
// replicated cluster, bootstrap a schema, run transactions under
// fine-grained strong consistency, and inspect the result.
package main

import (
	"fmt"
	"log"

	"sconrep"
)

func main() {
	// Three replicas, fine-grained lazy strong consistency (FSC): the
	// paper's recommended configuration.
	db, err := sconrep.Open(sconrep.Config{
		Replicas:      3,
		Mode:          sconrep.Fine,
		RecordHistory: true, // enable the consistency checker
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Bootstrap runs once, on the first replica; the others are built
	// from what it committed.
	err = db.Bootstrap(func(b *sconrep.Boot) error {
		b.Exec(`CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance FLOAT)`)
		b.Exec(`CREATE INDEX accounts_owner ON accounts (owner)`)
		b.Exec(`INSERT INTO accounts VALUES
			(1, 'ann', 100.0),
			(2, 'bob', 50.0),
			(3, 'carla', 75.0)`)
		return b.Err()
	})
	if err != nil {
		log.Fatal(err)
	}

	// Register the transactions we run, so the fine-grained mode knows
	// each one's table-set up front.
	getBalance := sconrep.MustPrepare(`SELECT owner, balance FROM accounts WHERE id = ?`)
	transferOut := sconrep.MustPrepare(`UPDATE accounts SET balance = balance - ? WHERE id = ?`)
	transferIn := sconrep.MustPrepare(`UPDATE accounts SET balance = balance + ? WHERE id = ?`)
	db.RegisterTxn("transfer", getBalance, transferOut, transferIn)
	db.RegisterTxn("audit", getBalance)

	// A money transfer: one transaction, retried on conflict.
	alice := db.SessionWithID("alice")
	defer alice.Close()
	for {
		tx, err := alice.Begin("transfer")
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tx.Stmt(transferOut, 25.0, 1); err != nil {
			tx.Abort()
			log.Fatal(err)
		}
		if _, err := tx.Stmt(transferIn, 25.0, 2); err != nil {
			tx.Abort()
			log.Fatal(err)
		}
		err = tx.Commit()
		if err == nil {
			break
		}
		if !sconrep.IsRetryable(err) {
			log.Fatal(err)
		}
		fmt.Println("conflict, retrying:", err)
	}

	// Strong consistency: a different client, possibly routed to a
	// different replica, immediately sees the transfer.
	bob := db.SessionWithID("bob")
	defer bob.Close()
	tx, err := bob.Begin("audit")
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range []int{1, 2, 3} {
		res, err := tx.Stmt(getBalance, id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("account %d: %-6s %6.2f\n", id, res.Rows[0][0], res.Rows[0][1])
	}
	res, err := tx.Exec(`SELECT COUNT(*), SUM(balance) FROM accounts`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total: %d accounts, %.2f across the bank\n", res.Rows[0][0], res.Rows[0][1])
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}

	// The independent checker confirms no stale read slipped through.
	violations, err := db.CheckConsistency()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strong-consistency violations: %d\n", len(violations))

	st := db.Stats()
	fmt.Printf("stats: %d committed (%d updates), %d aborted\n",
		st.Committed, st.Updates, st.Aborted)
}
