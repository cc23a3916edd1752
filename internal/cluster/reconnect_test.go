package cluster

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/history"
	"sconrep/internal/wire"
)

// slowReads delays every read on a connection: on a replica's
// certifier link it makes that replica apply each refresh late.
type slowReads struct {
	net.Conn
	delay time.Duration
}

func (c slowReads) Read(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Read(p)
}

// TestSessionKeepsFloorAcrossReconnect: a session's floor is its
// client's, so a connection cut between a write and the session's read
// of it loses nothing. Replica 1 applies refreshes late; each round a
// session writes its row, its connection is cut, and the session reads
// the row back on a new connection — routed to either replica. The read
// sees the write in SC, CSC and FSC alike, and the history, recorded
// under the session's unchanged ID, is session-consistent. Before
// sessions held their floors, a reconnect began a new session with no
// floor, and under SC the reads routed to the lagging replica read
// stale.
func TestSessionKeepsFloorAcrossReconnect(t *testing.T) {
	const rounds = 200
	for _, mode := range []core.Mode{core.Session, core.Coarse, core.Fine} {
		t.Run(mode.String(), func(t *testing.T) {
			var client atomic.Pointer[net.Conn]
			c, err := NewNetworked(Config{Replicas: 2, Mode: mode, Seed: 1, RecordHistory: true}, NetConfig{
				Timeouts: wire.Timeouts{Call: 5 * time.Second, Idle: 2 * time.Second},
				Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond},
				DialerFor: func(link string) wire.Dialer {
					switch link {
					case CertLink(1):
						return func(network, addr string) (net.Conn, error) {
							nc, err := net.Dial(network, addr)
							if err != nil {
								return nil, err
							}
							return slowReads{Conn: nc, delay: 2 * time.Millisecond}, nil
						}
					case LinkClient:
						return func(network, addr string) (net.Conn, error) {
							nc, err := net.Dial(network, addr)
							if err == nil {
								client.Store(&nc)
							}
							return nc, err
						}
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.LoadData(loadNetKV); err != nil {
				t.Fatal(err)
			}
			s := c.SessionWithID("reader")
			defer s.Close()
			tables := []string{"kv"}
			stale, dials := 0, 0
			for i := 0; i < rounds; i++ {
				want := fmt.Sprintf("round-%d", i)
				tx, _ := s.BeginTables(tables)
				if _, err := tx.ExecSQL(`UPDATE kv SET v = ? WHERE k = 1`, want); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				cut := client.Load()
				(*cut).Close()
				tx, _ = s.BeginTables(tables)
				res, err := tx.ExecSQL(`SELECT v FROM kv WHERE k = 1`)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if client.Load() != cut {
					dials++
				}
				if res.Rows[0][0] != want {
					stale++
				}
			}
			if stale != 0 {
				t.Errorf("%d of %d reads after a reconnect missed the session's own write", stale, rounds)
			}
			if dials != rounds {
				t.Errorf("%d of %d cuts were followed by a reconnect", dials, rounds)
			}
			events := c.Recorder().Events()
			for _, e := range events {
				if e.Session != s.ID() {
					t.Fatalf("an event ran as session %q, want %q", e.Session, s.ID())
				}
			}
			if v := history.CheckSession(events); len(v) != 0 {
				t.Errorf("%d session violations, first %v", len(v), v[0])
			}
			if v := history.CheckMonotonicSessions(events); len(v) != 0 {
				t.Errorf("%d monotonic-session violations, first %v", len(v), v[0])
			}
		})
	}
}
