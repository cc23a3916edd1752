package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/sql"
)

// Client is an application's connection to a gateway: one session, one
// transaction at a time. It holds the session's floor, which a client
// dialed after this one breaks takes over (Resume).
type Client struct {
	conn net.Conn
	fc   *frameConn
	to   Timeouts
	// broken is set on any transport error: what the gateway holds of
	// the open transaction is unknown, and the caller must reconnect.
	broken atomic.Bool
	// mu is held across each exchange, request and answer: the session's
	// own and the idle timer's.
	mu sync.Mutex
	// guarded by mu
	seq uint64
	// end is the end of the session's latest transaction when that needed
	// no answer — a read-only commit or an abort — while no request has
	// carried it yet; holding says one is held, since when.
	// guarded by mu
	end clientEnd
	// guarded by mu
	holding bool
	// guarded by mu
	since time.Time
	// idle sends a held end on a request of its own once it has been held
	// for probePeriod; nil until the first end is held.
	// guarded by mu
	idle *time.Timer
	// req and resp are every exchange's, reused.
	// guarded by mu
	req clientRequest
	// guarded by mu
	resp clientResponse
	// armed says Start armed a begin header not yet sent: a transaction
	// named txnName, or over tables, under the caller's span context.
	armed   bool
	txnName string
	tables  []string
	trace   dtrace.SpanContext
	// snapshot is the latest transaction's begin snapshot.
	snapshot uint64
	// readOnly: the latest response left a transaction open that had
	// written nothing, with readTables its observed table-set and
	// readVersions their bounds. Committing it is local to its replica
	// (§IV) and everything the commit response would say is already
	// here, so that commit is an end the client holds.
	readOnly     bool
	readTables   []string
	readVersions []uint64
	// floor is the session's: every commit answered on it, and every
	// held read-only end, raises it before the next begin header, which
	// carries it.
	floor core.Floor
}

var errBroken = errors.New("wire: session broken, reconnect")

// Dial opens a session against a gateway.
func Dial(addr, sessionID string, opts ...Option) (*Client, error) {
	o := buildOptions(opts)
	conn, err := o.dialer(addr)("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial gateway %s: %w", addr, err)
	}
	c := &Client{conn: conn, fc: newFrameConn(conn), to: o.to}
	if d := o.to.Call; d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := c.fc.send(&clientHello{SessionID: sessionID}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: hello: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	return c, nil
}

// Close ends the session. A held end goes out first, on a request of its
// own, so the replica releases the snapshot now; if it cannot, the
// gateway aborts the transaction when the connection closes.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.holding && !c.broken.Load() {
		c.req = clientRequest{}
		c.exchange()
	}
	if c.idle != nil {
		c.idle.Stop()
	}
	c.mu.Unlock()
	return c.conn.Close()
}

// Broken reports whether the session hit a transport error. A broken
// client cannot be reused: the gateway may have already aborted the
// open transaction. The session goes on: dial a new client under the
// same ID and Resume it from this one.
func (c *Client) Broken() bool { return c.broken.Load() }

// Resume makes c, freshly dialed, carry on prev's session: c takes the
// session's floor from prev, so read-your-writes and monotonic reads
// hold across the reconnect. prev, broken or closed, is not used again.
func (c *Client) Resume(prev *Client) { c.floor = prev.floor }

// exchange puts c.req on the wire, carrying the held end, and reads its
// answer into c.resp. Caller holds mu. A held end is delivered at most
// once: an exchange that fails drops it, and the gateway aborts what was
// open when the connection goes.
func (c *Client) exchange() error {
	if c.broken.Load() {
		return errBroken
	}
	req := &c.req
	if c.holding {
		c.holding = false
		c.end.HeldUs = uint64(time.Since(c.since) / time.Microsecond)
		req.HasEnd, req.End = true, c.end
	}
	c.seq++
	req.Seq = c.seq
	if d := c.to.Call; d > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := c.fc.send(req); err != nil {
		c.broken.Store(true)
		return fmt.Errorf("wire: send: %w", err)
	}
	if d := c.to.Call; d > 0 {
		c.conn.SetReadDeadline(time.Now().Add(d))
	}
	if err := c.fc.recv(&c.resp); err != nil {
		c.broken.Store(true)
		return fmt.Errorf("wire: recv: %w", err)
	}
	if c.resp.Seq != c.seq {
		c.broken.Store(true)
		return fmt.Errorf("wire: response out of sequence (got %d, want %d)", c.resp.Seq, c.seq)
	}
	c.conn.SetDeadline(time.Time{})
	return nil
}

// call performs one exchange for the session, the armed begin header
// riding on it, and returns its answer. The answer is a copy: c.resp
// is the next exchange's, the idle timer's included, once mu is
// released.
func (c *Client) call(o op, query string, params []any) (clientResponse, error) {
	begin := c.armed
	c.armed = false
	c.readOnly = false
	c.mu.Lock()
	c.req = clientRequest{Op: o, SQL: query, Params: params}
	if begin {
		c.req.Begin, c.req.TxnName, c.req.Tables, c.req.Trace, c.req.Floor = true, c.txnName, c.tables, c.trace, c.floor
	}
	err := c.exchange()
	resp := c.resp
	c.mu.Unlock()
	if err != nil {
		return clientResponse{}, err
	}
	if resp.Err != "" {
		return resp, decodeErr(resp.ErrCode, resp.Err)
	}
	if begin {
		c.snapshot = resp.Snapshot
	}
	c.readOnly, c.readTables, c.readVersions = resp.ReadOnly && o != opCommit, resp.ReadTables, resp.TableVersions
	return resp, nil
}

// hold holds the end of the open transaction for the session's next
// request and sets the idle timer to fire probePeriod from now. A second
// end before any request ends nothing — no transaction was opened in
// between — so the first is kept.
func (c *Client) hold(abort bool) {
	c.readOnly = false
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holding {
		return
	}
	c.end, c.holding, c.since = clientEnd{Abort: abort}, true, time.Now()
	if c.idle == nil {
		c.idle = time.AfterFunc(probePeriod, c.sendIdle)
	} else {
		c.idle.Reset(probePeriod)
	}
}

// sendIdle runs on the idle timer: a held end goes out on an answered
// request that carries nothing else, so an idle session pins no snapshot
// at its replica. An error marks the session broken, and its next call
// reports it.
func (c *Client) sendIdle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holding {
		c.req = clientRequest{}
		c.exchange()
	}
}

// RegisterTxn declares a named transaction's table-set at the gateway
// (fine-grained consistency).
func (c *Client) RegisterTxn(name string, tables []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = clientRequest{Op: opRegister, Name: name, Tables: tables}
	if err := c.exchange(); err != nil {
		return err
	}
	return decodeErr(c.resp.ErrCode, c.resp.Err)
}

// Start arms the begin header of the session's next transaction and
// sends nothing: the header (transaction name or explicit table-set,
// and the caller's span context) rides on the next Exec or Commit, so
// a transaction costs no round trip of its own to begin. The gateway
// routes it and the replica applies the mode's start rule when that
// request arrives; routing and gate errors surface from it, and a
// failed header request leaves no transaction behind. Abort before the
// header went out discards it locally.
func (c *Client) Start(txnName string, tables []string, sc dtrace.SpanContext) {
	c.armed, c.txnName, c.tables, c.trace = true, txnName, tables, sc
}

// Snapshot returns the version the session's latest transaction reads
// at, as answered by the request that carried its begin header.
func (c *Client) Snapshot() uint64 { return c.snapshot }

// Begin starts a transaction under the given name.
func (c *Client) Begin(txnName string) error {
	_, err := c.BeginTx(txnName)
	return err
}

// BeginTx starts a transaction and returns the snapshot version it
// reads at. Unlike Start it is eager: the header goes out alone, on a
// request with no operation, in a round trip of its own.
func (c *Client) BeginTx(txnName string) (snapshot uint64, err error) {
	c.Start(txnName, nil, dtrace.SpanContext{})
	if _, err := c.call(opNone, "", nil); err != nil {
		return 0, err
	}
	return c.snapshot, nil
}

// Exec runs one SQL statement in the open transaction. Parameters
// follow sql.NormalizeParams; one it refuses fails the call before
// anything is sent.
func (c *Client) Exec(query string, params ...any) (*sql.Result, error) {
	params, err := sql.NormalizeParams(params)
	if err != nil {
		return nil, err
	}
	resp, err := c.call(opExec, query, params)
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// CommitInfo describes an acknowledged commit as the client saw it.
type CommitInfo struct {
	// Version is the commit version (snapshot version when ReadOnly).
	Version  uint64
	ReadOnly bool
	// Snapshot is the version the transaction read at.
	Snapshot uint64
	// WriteTables / ReadTables are the observed table-sets, for the
	// history checker.
	WriteTables []string
	ReadTables  []string
}

// Commit finishes the open transaction and returns the commit version
// (snapshot version for read-only transactions).
func (c *Client) Commit() (version uint64, readOnly bool, err error) {
	info, err := c.CommitEx()
	return info.Version, info.ReadOnly, err
}

// CommitEx finishes the open transaction and returns the full commit
// observation. A transaction that wrote nothing commits without a round
// trip and without a frame: the client holds its end, and the session's
// next request carries it (see hold).
func (c *Client) CommitEx() (CommitInfo, error) {
	if c.readOnly && !c.armed {
		c.floor.Observe(c.snapshot, c.readTables, c.readVersions)
		c.hold(false)
		return CommitInfo{Version: c.snapshot, ReadOnly: true, Snapshot: c.snapshot, ReadTables: c.readTables}, nil
	}
	resp, err := c.call(opCommit, "", nil)
	if err != nil {
		return CommitInfo{}, err
	}
	c.floor.Observe(resp.Version, resp.ReadTables, resp.TableVersions)
	return CommitInfo{
		Version:     resp.Version,
		ReadOnly:    resp.ReadOnly,
		Snapshot:    resp.Snapshot,
		WriteTables: resp.WriteTables,
		ReadTables:  resp.ReadTables,
	}, nil
}

// Abort discards the open transaction without a frame: there is nothing
// to learn from an answer, so the client holds its end like a read-only
// commit's. One whose begin header never went out exists only here, so
// nothing is held.
func (c *Client) Abort() error {
	if c.armed {
		c.armed = false
		return nil
	}
	if c.broken.Load() {
		return errBroken
	}
	c.hold(true)
	return nil
}
