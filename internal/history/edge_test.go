package history

import "testing"

// mkT builds an event with explicit table-sets.
func mkT(id uint64, session string, ro bool, submitMS, ackMS int, snapshot, commit uint64, writes, reads []string) Event {
	e := mk(id, session, ro, submitMS, ackMS, snapshot, commit)
	e.WriteTables = writes
	e.ReadTables = reads
	return e
}

// TestCheckerEdgeCases drives the three checkers through the awkward
// histories a fault-injected run produces: commit-version gaps left by
// aborted transactions, zero-duration transactions whose ack and a
// successor's submit coincide, read-only traffic crossing sessions,
// a session that reconnects under its own ID, and — as the control —
// histories built to violate each guarantee.
func TestCheckerEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		events    []Event
		strong    int // expected violation counts
		session   int
		monotonic int
	}{
		{
			// Certification aborts consume no version, but a crashed
			// replica's in-flight transactions can leave version gaps
			// (here: nothing committed v2). Later snapshots skipping the
			// gap are fine; the checker must compare against observed
			// commits only, not assume dense versions.
			name: "aborted txns leave version gaps",
			events: []Event{
				mk(1, "a", false, 0, 10, 0, 1),
				mk(2, "b", false, 20, 30, 1, 3), // v2 was aborted/never acked
				mk(3, "c", true, 40, 50, 3, 3),
			},
		},
		{
			// Ti.Acked == Tj.Submit exactly: "commits before Tj starts"
			// is strict real-time precedence, so the pair is concurrent
			// and imposes nothing.
			name: "equal ack and submit are concurrent",
			events: []Event{
				mk(1, "a", false, 0, 20, 0, 1),
				mk(2, "b", true, 20, 30, 0, 0),
			},
		},
		{
			// A zero-duration transaction (Submit == Acked) must neither
			// crash the sweep nor obligate itself.
			name: "zero-duration transaction",
			events: []Event{
				mk(1, "a", false, 10, 10, 0, 1),
				mk(2, "b", true, 30, 40, 1, 1),
			},
		},
		{
			// Read-only transactions acked in one session impose no floor
			// on any other session — only updates publish state.
			name: "read-only crossing sessions imposes nothing",
			events: []Event{
				mk(1, "a", true, 0, 10, 9, 9),
				mk(2, "b", true, 20, 30, 0, 0),
				mk(3, "c", true, 40, 50, 0, 0),
			},
		},
		{
			// A session keeps its ID across a reconnect, and its floor
			// with it: a read after the break that misses the session's
			// own write from before it is a session violation (and a
			// strong one), and its snapshot below the write's is a
			// monotonic one.
			name: "same-id reconnect that regresses is flagged",
			events: []Event{
				mk(1, "s", false, 0, 10, 4, 5),
				mk(2, "s", true, 20, 30, 3, 3), // first transaction on the new connection
			},
			strong:    1,
			session:   1,
			monotonic: 1,
		},
		{
			// Control: a read-only snapshot regression within one
			// session ID is a monotonic violation, whatever the session's
			// connections did — no reconnect splits a session.
			name: "same history without epoch split is flagged",
			events: []Event{
				mk(1, "s", true, 0, 10, 5, 5),
				mk(2, "s", true, 20, 30, 3, 3),
			},
			monotonic: 1,
		},
		{
			// Control: a deliberately stale read after an acknowledged
			// update violates strong consistency; in the same session it
			// violates session consistency too.
			name: "stale read flagged",
			events: []Event{
				mk(1, "s", false, 0, 10, 0, 4),
				mk(2, "s", true, 20, 30, 0, 0),
			},
			strong:  1,
			session: 1,
		},
		{
			// Table-aware: an update to "orders" acked before a reader of
			// "items" started does not obligate that reader's snapshot
			// (fine-grained consistency), but a reader of "orders" is
			// held to it.
			name: "fine-grained visibility by table",
			events: []Event{
				mkT(1, "a", false, 0, 10, 0, 2, []string{"orders"}, []string{"orders"}),
				mkT(2, "b", true, 20, 30, 0, 0, nil, []string{"items"}),
				mkT(3, "c", true, 40, 50, 0, 0, nil, []string{"orders"}),
			},
			strong: 1,
		},
		{
			// Sessions interleaved in time: every reader observes the
			// updates acknowledged before its submit, so nothing is
			// flagged anywhere.
			name: "interleaved sessions stay consistent",
			events: []Event{
				mk(1, "a", false, 0, 10, 0, 1),
				mk(2, "b", false, 5, 25, 0, 2),
				mk(3, "a", true, 15, 20, 1, 1),
				mk(4, "b", true, 30, 40, 2, 2),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := len(CheckStrong(tc.events)); got != tc.strong {
				t.Errorf("CheckStrong = %d violations, want %d: %v", got, tc.strong, CheckStrong(tc.events))
			}
			if got := len(CheckSession(tc.events)); got != tc.session {
				t.Errorf("CheckSession = %d violations, want %d: %v", got, tc.session, CheckSession(tc.events))
			}
			if got := len(CheckMonotonicSessions(tc.events)); got != tc.monotonic {
				t.Errorf("CheckMonotonicSessions = %d violations, want %d: %v", got, tc.monotonic, CheckMonotonicSessions(tc.events))
			}
		})
	}
}
