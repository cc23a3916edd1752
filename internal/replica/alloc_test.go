package replica

import "testing"

// TestReadPathAllocs bounds what a read-only transaction allocates at
// its replica — Begin, one prepared point SELECT whose plan is kept, and
// the local commit — so a map or a copy creeping back onto the read path
// shows.
func TestReadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	rg := newRig(t, 1, true)
	defer rg.close()
	r := rg.replicas[0]
	read := func() {
		tx, err := r.Begin(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(getStmt, int64(3)); err != nil {
			t.Fatal(err)
		}
		if res, err := tx.Commit(false); err != nil || !res.ReadOnly {
			t.Fatalf("commit: %+v, %v", res, err)
		}
	}
	read() // plans and keeps the plan
	const ceiling = 12
	got := testing.AllocsPerRun(200, read)
	if got > ceiling {
		t.Fatalf("%.1f allocations per read-only transaction, want at most %d", got, ceiling)
	}
	t.Logf("%.1f allocations per read-only transaction", got)
}
