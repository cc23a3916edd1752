package wire

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"sconrep/internal/obs/dtrace"
	"sconrep/internal/sql"
)

// Client is an application's connection to a gateway: one session, one
// transaction at a time.
type Client struct {
	conn net.Conn
	fc   *frameConn
	to   Timeouts
	seq  uint64
	// broken is set on any transport error: the session's gateway state
	// is unknown and the caller must reconnect with a fresh session.
	broken atomic.Bool
	// pending is the begin header armed by Start and not yet sent.
	pending *clientRequest
	// snapshot is the latest transaction's begin snapshot.
	snapshot uint64
	// readOnly: the latest response left a transaction open that had
	// written nothing, with readTables its observed table-set. Committing
	// it is local to its replica (§IV) and everything the commit response
	// would say is already here, so that commit is a one-way frame.
	readOnly   bool
	readTables []string
}

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

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

// Broken reports whether the session hit a transport error. A broken
// client cannot be reused: the gateway may have already aborted the
// open transaction and dropped the session's version floor.
func (c *Client) Broken() bool { return c.broken.Load() }

// send puts one request on the wire, the armed begin header riding on
// it. It is all there is to a one-way request, and the first half of
// call.
func (c *Client) send(req *clientRequest) error {
	if c.broken.Load() {
		return fmt.Errorf("wire: session broken, reconnect")
	}
	if hdr := c.pending; hdr != nil {
		c.pending = nil
		req.Begin, req.TxnName, req.Tables, req.Trace = true, hdr.TxnName, hdr.Tables, hdr.Trace
	}
	c.readOnly = false
	c.seq++
	req.Seq = c.seq
	if d := c.to.Call; d > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := c.fc.send(req); err != nil {
		c.broken.Store(true)
		return fmt.Errorf("wire: send: %w", err)
	}
	return nil
}

// sendOneWay sends a request the gateway does not answer.
func (c *Client) sendOneWay(o op) error {
	err := c.send(&clientRequest{Op: o, OneWay: true})
	c.conn.SetWriteDeadline(time.Time{})
	return err
}

func (c *Client) call(req clientRequest) (*clientResponse, error) {
	if err := c.send(&req); err != nil {
		return nil, err
	}
	if d := c.to.Call; d > 0 {
		c.conn.SetReadDeadline(time.Now().Add(d))
	}
	var resp clientResponse
	if err := c.fc.recv(&resp); err != nil {
		c.broken.Store(true)
		return nil, fmt.Errorf("wire: recv: %w", err)
	}
	if resp.Seq != c.seq {
		c.broken.Store(true)
		return nil, fmt.Errorf("wire: response out of sequence (got %d, want %d)", resp.Seq, c.seq)
	}
	c.conn.SetDeadline(time.Time{})
	if resp.Err != "" {
		return &resp, decodeErr(resp.ErrCode, resp.Err)
	}
	if req.Begin {
		c.snapshot = resp.Snapshot
	}
	c.readOnly, c.readTables = resp.ReadOnly && req.Op != opCommit, resp.ReadTables
	return &resp, nil
}

// RegisterTxn declares a named transaction's table-set at the gateway
// (fine-grained consistency).
func (c *Client) RegisterTxn(name string, tables []string) error {
	_, err := c.call(clientRequest{Op: opRegister, Name: name, Tables: tables})
	return err
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
	c.pending = &clientRequest{Begin: true, TxnName: txnName, Tables: tables, Trace: sc}
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
	if _, err := c.call(clientRequest{}); err != nil {
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
	resp, err := c.call(clientRequest{Op: opExec, SQL: query, Params: params})
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
// trip: the frame goes out at once — an idle session must not pin a
// snapshot at its replica — and nobody waits for an answer.
func (c *Client) CommitEx() (CommitInfo, error) {
	if c.readOnly && c.pending == nil {
		if err := c.sendOneWay(opCommit); err != nil {
			return CommitInfo{}, err
		}
		return CommitInfo{Version: c.snapshot, ReadOnly: true, Snapshot: c.snapshot, ReadTables: c.readTables}, nil
	}
	resp, err := c.call(clientRequest{Op: opCommit})
	if err != nil {
		return CommitInfo{}, err
	}
	return CommitInfo{
		Version:     resp.Version,
		ReadOnly:    resp.ReadOnly,
		Snapshot:    resp.Snapshot,
		WriteTables: resp.WriteTables,
		ReadTables:  resp.ReadTables,
	}, nil
}

// Abort discards the open transaction, one-way: there is nothing to
// learn from an answer. One whose begin header never went out exists
// only here, so nothing is sent.
func (c *Client) Abort() error {
	if c.pending != nil {
		c.pending = nil
		return nil
	}
	return c.sendOneWay(opAbort)
}
