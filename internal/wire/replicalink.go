package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/lb"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/writeset"
)

// Replica-link protocol (gateway ⇄ replica).

type replicaRequest struct {
	// Seq numbers requests per connection; see seqGuard.
	Seq uint64
	// Op is opExec, opCommit, opAbort or opStatus; opNone on a request
	// that carries nothing but the begin header.
	Op op

	// Begin marks the begin header: the replica passes its serve gate,
	// starts a transaction under MinVersion (the start delay), and runs
	// Op in it. The response carries the new TxnID and Snapshot unless
	// the request failed or ended the transaction.
	Begin      bool
	MinVersion uint64
	// Trace is the caller's span context for the begin.
	Trace dtrace.SpanContext

	// exec / commit / abort (ignored under Begin)
	TxnID  uint64
	SQL    string
	Params []any
	Eager  bool

	// OneWay marks a frame nobody waits on: no response is written. Only
	// what needs no answer travels so — an abort, and the commit of a
	// transaction that wrote nothing, whose outcome the last response
	// already carried. A flag and not a rule both ends infer: a receiver
	// that disagreed would desynchronize the Seq echo silently.
	OneWay bool
}

func (r *replicaRequest) appendTo(buf []byte) ([]byte, error) {
	flags := flagIf(r.Begin, flagBegin) | flagIf(r.Trace != dtrace.SpanContext{}, flagTrace) |
		flagIf(r.Eager, flagEager) | flagIf(r.OneWay, flagOneWay)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = appendSpan(append(buf, byte(r.Op), flags), flags, r.Trace)
	buf = binary.AppendUvarint(buf, r.MinVersion)
	buf = binary.AppendUvarint(buf, r.TxnID)
	buf = writeset.AppendString(buf, r.SQL)
	return writeset.AppendRow(buf, r.Params)
}

func (r *replicaRequest) parse(d *writeset.Decoder) {
	r.Seq = d.Uvarint()
	r.Op = readOp(d)
	flags := readFlags(d, flagBegin|flagTrace|flagEager|flagOneWay)
	r.Begin, r.Eager, r.OneWay = flags&flagBegin != 0, flags&flagEager != 0, flags&flagOneWay != 0
	r.Trace = readSpan(d, flags)
	r.MinVersion = d.Uvarint()
	r.TxnID = d.Uvarint()
	r.SQL = d.Str()
	r.Params = d.Row()
}

type replicaResponse struct {
	Seq     uint64
	Err     string
	ErrCode errCode // retryability over the wire

	TxnID    uint64
	Snapshot uint64
	Result   *sql.Result
	// Commit is the commit's result — and, on a response that leaves open
	// a transaction that has written nothing, what its commit would
	// return now (replica.Txn.ReadOnlyCommit): that commit is then a
	// one-way frame.
	Commit replica.CommitResult
	// Touched is the transaction's observed table-set (reads and writes),
	// as of the same moment as Commit — forwarded to the history checker.
	Touched []string

	// status
	Version uint64
	Active  int
	Crashed bool
	// Ready reports the serve gate: false while the replica's refresh
	// stream is down or it is catching up after a partition.
	Ready bool
}

func (r *replicaResponse) appendTo(buf []byte) ([]byte, error) {
	flags := flagIf(r.Result != nil, flagResult) | flagIf(r.Commit.ReadOnly, flagReadOnly) |
		flagIf(r.Crashed, flagCrashed) | flagIf(r.Ready, flagReady)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = writeset.AppendString(append(buf, flags, byte(r.ErrCode)), r.Err)
	buf = binary.AppendUvarint(buf, r.TxnID)
	buf = binary.AppendUvarint(buf, r.Snapshot)
	buf, err := appendResult(buf, r.Result)
	if err != nil {
		return nil, err
	}
	buf = binary.AppendUvarint(buf, r.Commit.Version)
	buf = appendStrings(buf, r.Commit.WrittenTables)
	buf = appendVersions(buf, r.Commit.TableVersions)
	buf = appendStrings(buf, r.Touched)
	buf = binary.AppendUvarint(buf, r.Version)
	return binary.AppendVarint(buf, int64(r.Active)), nil
}

func (r *replicaResponse) parse(d *writeset.Decoder) {
	r.Seq = d.Uvarint()
	flags := readFlags(d, flagResult|flagReadOnly|flagCrashed|flagReady)
	r.Commit.ReadOnly, r.Crashed, r.Ready = flags&flagReadOnly != 0, flags&flagCrashed != 0, flags&flagReady != 0
	r.ErrCode = readErrCode(d)
	r.Err = d.Str()
	r.TxnID = d.Uvarint()
	r.Snapshot = d.Uvarint()
	r.Result = readResult(d, flags)
	r.Commit.Version = d.Uvarint()
	r.Commit.WrittenTables = readStrings(d)
	r.Commit.TableVersions = readVersions(d)
	r.Touched = readStrings(d)
	r.Version = d.Uvarint()
	r.Active = int(d.Varint())
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

// errCode carries an error's retryability over the wire.
type errCode uint8

const (
	codeNone errCode = iota
	codeOther
	codeConflict
	codeCrashed
	codeUnavailable
	codeNotEager
	numErrCodes
)

func readErrCode(d *writeset.Decoder) errCode {
	c := errCode(d.Byte())
	if c >= numErrCodes {
		d.Fail()
	}
	return c
}

func codeOf(err error) errCode {
	switch {
	case err == nil:
		return codeNone
	case errors.Is(err, replica.ErrCertifyConflict), errors.Is(err, replica.ErrEarlyAbort):
		return codeConflict
	case errors.Is(err, replica.ErrCrashed):
		return codeCrashed
	case errors.Is(err, ErrUnavailable), errors.Is(err, lb.ErrNoReplicas):
		return codeUnavailable
	case errors.Is(err, replica.ErrNotEager):
		return codeNotEager
	default:
		return codeOther
	}
}

func decodeErr(code errCode, msg string) error {
	if msg == "" {
		return nil
	}
	switch code {
	case codeConflict:
		return fmt.Errorf("%w: %s", replica.ErrCertifyConflict, msg)
	case codeCrashed:
		return fmt.Errorf("%w: %s", replica.ErrCrashed, msg)
	case codeUnavailable:
		return fmt.Errorf("%w: %s", ErrUnavailable, msg)
	case codeNotEager:
		return fmt.Errorf("%w: %s", replica.ErrNotEager, msg)
	default:
		return errors.New(msg)
	}
}

// ReplicaServer exposes one replica's transaction API on a listener.
type ReplicaServer struct {
	*server
	rep *replica.Replica

	// mu guards the open-transaction table; an operation that ends a
	// transaction drops it from txns while still holding that
	// transaction's lock.
	// locks after openTxn.mu
	mu sync.Mutex
	// txns maps wire txn IDs to open transactions.
	// guarded by mu
	txns map[uint64]*openTxn
	// next is the last issued wire txn ID.
	// guarded by mu
	next uint64
	// stmts caches parses by statement text (string → *sql.Prepared):
	// written once per distinct statement, read on every exec. Keys and
	// parses are built from an owned copy of the text, never from the
	// request frame it first arrived in.
	stmts sync.Map
}

// ServeReplica starts serving rep on addr.
func ServeReplica(rep *replica.Replica, addr string, opts ...Option) (*ReplicaServer, error) {
	srv, err := listen("replica", addr, opts)
	if err != nil {
		return nil, err
	}
	s := &ReplicaServer{server: srv, rep: rep, txns: make(map[uint64]*openTxn)}
	go s.acceptLoop(s.handle)
	return s, nil
}

// prepared caches parses by statement text.
func (s *ReplicaServer) prepared(text string) (*sql.Prepared, error) {
	if p, ok := s.stmts.Load(text); ok {
		return p.(*sql.Prepared), nil
	}
	text = strings.Clone(text)
	p, err := sql.Prepare(text)
	if err != nil {
		return nil, err
	}
	s.stmts.Store(text, p)
	return p, nil
}

// openTxn is a transaction a TxnID names. A replica.Txn is one
// client's and not safe for concurrent use, but requests naming the same
// TxnID can arrive on two connections at once: the gateway gives up on
// an exchange whose connection broke while the replica is still
// executing it, and sends the session's abort on another.
type openTxn struct {
	// mu serializes operations on tx.
	mu sync.Mutex
	tx *replica.Txn
}

func (s *ReplicaServer) getTxn(id uint64) (*openTxn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ot, ok := s.txns[id]
	return ot, ok
}

// addTxn registers an open transaction under a fresh wire txn ID.
func (s *ReplicaServer) addTxn(tx *replica.Txn) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	s.txns[s.next] = &openTxn{tx: tx}
	return s.next
}

func (s *ReplicaServer) dropTxn(id uint64) {
	s.mu.Lock()
	delete(s.txns, id)
	s.mu.Unlock()
}

func (s *ReplicaServer) handle(fc *frameConn) {
	c := fc.c
	if _, ok := s.hello(fc, string(linkReplica), nil); !ok {
		return
	}
	var guard seqGuard
	for {
		if d := s.opts.to.Idle; d > 0 {
			c.SetReadDeadline(time.Now().Add(d))
		}
		var req replicaRequest
		if err := fc.recv(&req); err != nil {
			return
		}
		if !guard.ok(req.Seq) {
			return
		}
		if req.OneWay && (req.Begin || req.Op != opCommit && req.Op != opAbort) {
			log.Printf("wire: replica %d: closing %s: one-way %q frame", s.rep.ID(), c.RemoteAddr(), req.Op)
			return
		}
		c.SetReadDeadline(time.Time{})
		resp := s.dispatch(&req)
		if req.OneWay {
			continue
		}
		resp.Seq = req.Seq
		if d := s.opts.to.Call; d > 0 {
			c.SetWriteDeadline(time.Now().Add(d))
		}
		if err := fc.send(resp); err != nil {
			return
		}
	}
}

// ownStrings replaces string parameters, which alias the request frame,
// with copies: a parameter can end up stored in a row.
func ownStrings(params []any) []any {
	for i, v := range params {
		if s, ok := v.(string); ok {
			params[i] = strings.Clone(s)
		}
	}
	return params
}

// dispatch serves one request: the begin header, when present, opens
// the transaction the operation then runs in; otherwise TxnID names it.
func (s *ReplicaServer) dispatch(req *replicaRequest) *replicaResponse {
	reqs := s.obsReqs.Load()
	if req.Begin {
		reqs.With("begin").Inc()
	}
	if req.Op != opNone {
		reqs.With(req.Op.String()).Inc()
	}
	resp := &replicaResponse{}
	fail := func(err error) *replicaResponse {
		resp.Err = err.Error()
		resp.ErrCode = codeOf(err)
		return resp
	}
	var tx *replica.Txn
	switch {
	case req.Op == opStatus:
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
		tx, err = s.rep.Begin(req.MinVersion, &req.Trace)
		if err != nil {
			return fail(err)
		}
		resp.Snapshot = tx.Snapshot()
	default:
		ot, ok := s.getTxn(req.TxnID)
		if !ok {
			return fail(replica.ErrTxnDone)
		}
		ot.mu.Lock()
		defer ot.mu.Unlock()
		tx = ot.tx
	}
	// ended: the operation finished the transaction, one way or another.
	var ended bool
	var err error
	switch req.Op {
	case opNone:
	case opExec:
		var p *sql.Prepared
		if p, err = s.prepared(req.SQL); err == nil {
			resp.Result, err = tx.Exec(p, ownStrings(req.Params)...)
		}
		ended = errors.Is(err, replica.ErrEarlyAbort) || errors.Is(err, replica.ErrCrashed)
	case opCommit:
		ended = true
		if req.OneWay {
			if _, _, readOnly := tx.ReadOnlyCommit(); !readOnly {
				// Nobody could hear the verdict: never certify.
				tx.Abort()
				break
			}
		}
		resp.Touched = tx.Touched()
		resp.Commit, err = tx.Commit(req.Eager)
		resp.Snapshot = tx.Snapshot()
	case opAbort:
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
	if !ended {
		resp.Commit, resp.Touched, _ = tx.ReadOnlyCommit()
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
	hello := func() outFrame { return bareHello(linkReplica) }
	r := &remoteReplica{id: id, pool: newConnPool(addr, hello, o.dialer(addr), o.to)}
	r.healthy.Store(true)
	return r
}

// ID implements lb.Node.
func (r *remoteReplica) ID() int { return r.id }

// Active implements lb.Node.
func (r *remoteReplica) Active() int { return int(r.active.Load()) }

// Crashed implements lb.Node.
func (r *remoteReplica) Crashed() bool { return !r.healthy.Load() }

// send puts req on the wire one-way: nothing comes back.
func (r *remoteReplica) send(req *replicaRequest) {
	req.OneWay = true
	if err := r.pool.call(req, nil); err != nil {
		r.healthy.Store(false)
	}
}

// call performs one exchange. An answered error comes back with its
// response, a transport error without one.
func (r *remoteReplica) call(req *replicaRequest) (*replicaResponse, error) {
	var resp replicaResponse
	if err := r.pool.call(req, &resp); err != nil {
		r.healthy.Store(false)
		return nil, err
	}
	if resp.refused() {
		r.healthy.Store(false)
	}
	return &resp, decodeErr(resp.ErrCode, resp.Err)
}

// refused reports an answer that says the replica is not serving: it
// crashed, or its serve gate is closed.
func (r *replicaResponse) refused() bool {
	return r.ErrCode == codeCrashed || r.ErrCode == codeUnavailable
}

// probe refreshes the health flag; the gateway calls it periodically
// so crashed or gated replicas rejoin the routing set once they
// recover or catch up.
func (r *remoteReplica) probe() {
	var resp replicaResponse
	if err := r.pool.call(&replicaRequest{Op: opStatus}, &resp); err != nil {
		r.healthy.Store(false)
		return
	}
	r.healthy.Store(!resp.Crashed && resp.Ready)
}
