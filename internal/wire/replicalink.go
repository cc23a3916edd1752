package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/lb"
	"sconrep/internal/metrics"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
)

// Replica-link protocol (gateway ⇄ replica).

type replicaRequest struct {
	// Seq numbers requests per connection; see seqGuard.
	Seq uint64
	// Op is "exec", "commit", "abort" or "status"; empty on a request
	// that carries nothing but the begin header.
	Op string

	// Begin marks the begin header: the replica passes its serve gate,
	// starts a transaction under MinVersion (the start delay), and runs
	// Op in it. The response carries the new TxnID and Snapshot unless
	// the request failed or ended the transaction.
	Begin      bool
	MinVersion uint64
	// Trace is the caller's span context for the begin — an optional
	// frame-header extension old peers ignore (gob skips unknown
	// fields and zero-fills missing ones).
	Trace dtrace.SpanContext

	// exec / commit / abort (ignored under Begin)
	TxnID  uint64
	SQL    string
	Params []any
	Eager  bool
}

type replicaResponse struct {
	Seq     uint64
	Err     string
	ErrCode string // "conflict", "crashed", "unavailable", "" — retryability over the wire

	TxnID    uint64
	Snapshot uint64
	Result   *sql.Result
	Commit   replica.CommitResult
	// Touched is the transaction's observed table-set at commit (reads
	// and writes) — forwarded to the history checker.
	Touched []string

	// status
	Version uint64
	Active  int
	Crashed bool
	// Ready reports the serve gate: false while the replica's refresh
	// stream is down or it is catching up after a partition.
	Ready bool
}

func (r *replicaRequest) setSeq(n uint64) { r.Seq = n }
func (r *replicaResponse) seq() uint64    { return r.Seq }

// seqGuard validates one decoded request's sequence number against the
// connection's counter. Requests must arrive exactly in order: a gap or
// repeat means the stream desynchronized — most likely a duplicated
// frame — and the only safe move is to drop the connection before the
// duplicate executes anything.
type seqGuard struct{ last uint64 }

func (g *seqGuard) ok(seq uint64) bool {
	if seq != g.last+1 {
		return false
	}
	g.last = seq
	return true
}

func errCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, replica.ErrCertifyConflict), errors.Is(err, replica.ErrEarlyAbort):
		return "conflict"
	case errors.Is(err, replica.ErrCrashed):
		return "crashed"
	case errors.Is(err, ErrUnavailable), errors.Is(err, lb.ErrNoReplicas):
		return "unavailable"
	default:
		return "other"
	}
}

func decodeErr(resp *replicaResponse) error {
	if resp.Err == "" {
		return nil
	}
	switch resp.ErrCode {
	case "conflict":
		return fmt.Errorf("%w: %s", replica.ErrCertifyConflict, resp.Err)
	case "crashed":
		return fmt.Errorf("%w: %s", replica.ErrCrashed, resp.Err)
	case "unavailable":
		return fmt.Errorf("%w: %s", ErrUnavailable, resp.Err)
	default:
		return errors.New(resp.Err)
	}
}

// ReplicaServer exposes one replica's transaction API on a listener.
type ReplicaServer struct {
	rep  *replica.Replica
	ln   net.Listener
	opts options

	mu sync.Mutex
	// closed refuses new connections.
	// guarded by mu
	closed bool
	// conns is the set of live connections.
	// guarded by mu
	conns map[net.Conn]struct{}
	// txns maps wire txn IDs to open transactions.
	// guarded by mu
	txns map[uint64]*replica.Txn
	// next is the last issued wire txn ID.
	// guarded by mu
	next uint64
	// stmts caches parses by statement text (string → *sql.Prepared):
	// written once per distinct statement, read on every exec.
	stmts sync.Map
	// obsReqs is set once by EnableObs, before traffic; nil-safe until
	// then.
	obsReqs atomic.Pointer[obs.CounterVec]
}

// EnableObs counts served requests per operation under
// sconrep_wire_requests_total{link="replica"}. Call before traffic.
func (s *ReplicaServer) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obsReqs.Store(reg.CounterVec("sconrep_wire_requests_total",
		"Wire requests served, by link and operation.", "op", "link", "replica"))
}

// ServeReplica starts serving rep on addr.
func ServeReplica(rep *replica.Replica, addr string, opts ...Option) (*ReplicaServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &ReplicaServer{
		rep:   rep,
		ln:    ln,
		opts:  buildOptions(opts),
		conns: make(map[net.Conn]struct{}),
		txns:  make(map[uint64]*replica.Txn),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *ReplicaServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and severs live connections.
func (s *ReplicaServer) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *ReplicaServer) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.handle(c)
	}
}

// prepared caches parses by statement text.
func (s *ReplicaServer) prepared(text string) (*sql.Prepared, error) {
	if p, ok := s.stmts.Load(text); ok {
		return p.(*sql.Prepared), nil
	}
	p, err := sql.Prepare(text)
	if err != nil {
		return nil, err
	}
	s.stmts.Store(text, p)
	return p, nil
}

func (s *ReplicaServer) getTxn(id uint64) (*replica.Txn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, ok := s.txns[id]
	return tx, ok
}

// addTxn registers an open transaction under a fresh wire txn ID.
func (s *ReplicaServer) addTxn(tx *replica.Txn) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	s.txns[s.next] = tx
	return s.next
}

func (s *ReplicaServer) dropTxn(id uint64) {
	s.mu.Lock()
	delete(s.txns, id)
	s.mu.Unlock()
}

func (s *ReplicaServer) handle(c net.Conn) {
	defer c.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	dec := gob.NewDecoder(c)
	fw := newFrameWriter(c)
	defer fw.release()
	var guard seqGuard
	for {
		if d := s.opts.to.Idle; d > 0 {
			c.SetReadDeadline(time.Now().Add(d))
		}
		var req replicaRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		if !guard.ok(req.Seq) {
			return
		}
		c.SetReadDeadline(time.Time{})
		resp := s.dispatch(&req)
		resp.Seq = req.Seq
		if d := s.opts.to.Call; d > 0 {
			c.SetWriteDeadline(time.Now().Add(d))
		}
		if err := fw.encode(resp); err != nil {
			return
		}
	}
}

// dispatch serves one request: the begin header, when present, opens
// the transaction the operation then runs in; otherwise TxnID names it.
func (s *ReplicaServer) dispatch(req *replicaRequest) *replicaResponse {
	reqs := s.obsReqs.Load()
	if req.Begin {
		reqs.With("begin").Inc()
	}
	if req.Op != "" {
		reqs.With(req.Op).Inc()
	}
	resp := &replicaResponse{}
	fail := func(err error) *replicaResponse {
		resp.Err = err.Error()
		resp.ErrCode = errCode(err)
		return resp
	}
	var tx *replica.Txn
	switch {
	case req.Op == "status":
		resp.Version = s.rep.Version()
		resp.Active = s.rep.Active()
		resp.Crashed = s.rep.Crashed()
		resp.Ready = true
		if g := s.opts.gate; g != nil && g() != nil {
			resp.Ready = false
		}
		return resp
	case req.Begin:
		if g := s.opts.gate; g != nil {
			if err := g(); err != nil {
				return fail(err)
			}
		}
		var err error
		tx, err = s.rep.BeginCtx(req.MinVersion, metrics.NewTxnTimer(), req.Trace)
		if err != nil {
			return fail(err)
		}
		resp.Snapshot = tx.Snapshot()
	default:
		var ok bool
		if tx, ok = s.getTxn(req.TxnID); !ok {
			if req.Op == "abort" {
				return resp
			}
			return fail(replica.ErrTxnDone)
		}
	}
	// ended: the operation finished the transaction, one way or another.
	var ended bool
	var err error
	switch req.Op {
	case "":
	case "exec":
		var p *sql.Prepared
		if p, err = s.prepared(req.SQL); err == nil {
			resp.Result, err = tx.Exec(p, req.Params...)
		}
		ended = errors.Is(err, replica.ErrEarlyAbort) || errors.Is(err, replica.ErrCrashed)
	case "commit":
		ended = true
		resp.Touched = tx.Touched()
		resp.Commit, err = tx.Commit(req.Eager)
		resp.Snapshot = tx.Snapshot()
	case "abort":
		ended = true
		tx.Abort()
	default:
		err = fmt.Errorf("wire: unknown replica op %q", req.Op)
	}
	switch {
	case !req.Begin:
		if ended {
			s.dropTxn(req.TxnID)
		}
	case err != nil:
		// A header request is all or nothing: its caller learns no
		// TxnID from a failure, so nothing may stay open under one.
		tx.Abort()
	case !ended:
		resp.TxnID = s.addTxn(tx)
	}
	if err != nil {
		return fail(err)
	}
	return resp
}

// remoteReplica is the gateway's handle on one replica process. It
// implements lb.Node: the active count is tracked gateway-side (the
// gateway initiates every transaction), and health is derived from
// link errors plus status probes.
type remoteReplica struct {
	id      int
	pool    *connPool
	active  atomic.Int64
	healthy atomic.Bool
}

func newRemoteReplica(id int, addr string, o *options) *remoteReplica {
	r := &remoteReplica{id: id, pool: newConnPool(addr, nil, o.dialer(addr), o.to)}
	r.healthy.Store(true)
	return r
}

// ID implements lb.Node.
func (r *remoteReplica) ID() int { return r.id }

// Active implements lb.Node.
func (r *remoteReplica) Active() int { return int(r.active.Load()) }

// Crashed implements lb.Node.
func (r *remoteReplica) Crashed() bool { return !r.healthy.Load() }

func (r *remoteReplica) call(req *replicaRequest) (*replicaResponse, error) {
	var resp replicaResponse
	if err := r.pool.call(req, &resp); err != nil {
		r.healthy.Store(false)
		return nil, err
	}
	if resp.ErrCode == "crashed" || resp.ErrCode == "unavailable" {
		r.healthy.Store(false)
	}
	return &resp, decodeErr(&resp)
}

// probe refreshes the health flag; the gateway calls it periodically
// so crashed or gated replicas rejoin the routing set once they
// recover or catch up.
func (r *remoteReplica) probe() {
	var resp replicaResponse
	if err := r.pool.call(&replicaRequest{Op: "status"}, &resp); err != nil {
		r.healthy.Store(false)
		return
	}
	r.healthy.Store(!resp.Crashed && resp.Ready)
}
