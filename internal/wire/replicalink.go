package wire

import (
	"crypto/rand"
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
	"sconrep/internal/shard"
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
	// the request failed or ended the transaction. MinVersion travels
	// only under Begin, and TxnID only without it.
	Begin      bool
	MinVersion uint64
	// Trace is the caller's span context for the begin.
	Trace dtrace.SpanContext

	// exec / commit / abort
	TxnID uint64
	// Ends are transactions the gateway has finished without an answer
	// from the replica — see replicaEnd. The replica runs them before
	// Op, whatever Op is and whatever becomes of it.
	Ends   []replicaEnd
	SQL    string
	Params []any
	Eager  bool
}

// replicaEnd ends one transaction whose end needs no answer: an abort,
// or the commit of a transaction that had written nothing when the
// replica last answered, whose outcome that answer already carried.
// The gateway holds it until its next request to the replica, any
// session's or its status probe, and that request carries it. A commit
// end of a transaction that wrote aborts it — nobody could hear a
// verdict, so it is never certified — and an end naming a TxnID the
// replica does not know is a no-op.
type replicaEnd struct {
	TxnID uint64
	Abort bool
	// HeldUs is how long the gateway held the end, in microseconds on its
	// own clock: the replica takes it out of the transaction's running
	// stage (replica.Txn.Excise).
	HeldUs uint64
}

func (r *replicaRequest) appendTo(buf []byte) ([]byte, error) {
	flags := flagIf(r.Begin, flagBegin) | flagIf(r.Trace != dtrace.SpanContext{}, flagTrace) |
		flagIf(r.Eager, flagEager) | flagIf(r.Ends != nil, flagEnds)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = appendSpan(append(buf, byte(r.Op), flags), flags, r.Trace)
	if r.Begin {
		buf = binary.AppendUvarint(buf, r.MinVersion)
	} else {
		buf = binary.AppendUvarint(buf, r.TxnID)
	}
	if r.Ends != nil {
		buf = binary.AppendUvarint(buf, uint64(len(r.Ends)))
		for _, e := range r.Ends {
			// The abort bit rides in the low bit of the hold.
			buf = binary.AppendUvarint(binary.AppendUvarint(buf, e.TxnID), e.HeldUs<<1|uint64(flagIf(e.Abort, 1)))
		}
	}
	buf = writeset.AppendString(buf, r.SQL)
	return writeset.AppendRow(buf, r.Params)
}

// parse decodes into r, reusing the arrays of its Ends and Params.
func (r *replicaRequest) parse(d *writeset.Decoder) {
	ends := r.Ends
	r.Seq = d.Uvarint()
	r.Op = readOp(d)
	flags := readFlags(d, flagBegin|flagTrace|flagEager|flagEnds)
	r.Begin, r.Eager = flags&flagBegin != 0, flags&flagEager != 0
	r.Trace = readSpan(d, flags)
	r.MinVersion, r.TxnID = 0, 0
	if r.Begin {
		r.MinVersion = d.Uvarint()
	} else {
		r.TxnID = d.Uvarint()
	}
	r.Ends = nil
	if flags&flagEnds != 0 {
		// An end takes two bytes at least.
		if n := d.Uvarint(); n <= uint64(d.Remaining()/2) {
			if ends == nil || uint64(cap(ends)) < n {
				ends = make([]replicaEnd, n)
			}
			r.Ends = ends[:n]
		} else {
			d.Fail()
		}
		for i := 0; i < len(r.Ends) && !d.Failed(); i++ {
			id, held := d.Uvarint(), d.Uvarint()
			r.Ends[i] = replicaEnd{TxnID: id, Abort: held&1 != 0, HeldUs: held >> 1}
		}
	}
	r.SQL = d.Str()
	r.Params = d.RowInto(r.Params)
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
	// return now (replica.Txn.ReadOnlyCommit): that commit then needs no
	// answer, and travels as an end. Its TableVersions travel as bare
	// values, one per table of its Touched.
	Commit replica.CommitResult

	// status
	Version uint64
	Active  int
	Crashed bool
	// Ready reports the serve gate: false while the replica's refresh
	// stream is down or it is catching up after a partition.
	Ready bool
	// Served (nil = all shards) and Shards, the map its certifier sent,
	// are on a status answer once the replica has the map.
	Served []int
	Shards *shard.Map
}

func (r *replicaResponse) appendTo(buf []byte) ([]byte, error) {
	tv := r.Commit.TableVersions
	flags := flagIf(r.Result != nil, flagResult) | flagIf(r.Commit.ReadOnly, flagReadOnly) |
		flagIf(r.Crashed, flagCrashed) | flagIf(r.Ready, flagReady) | flagIf(tv != nil, flagVersions) |
		flagIf(r.Shards != nil, flagShards)
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
	buf = appendStrings(buf, r.Commit.Touched)
	if tv != nil {
		if buf, err = appendAligned(buf, tv, r.Commit.Touched); err != nil {
			return nil, err
		}
	}
	buf = binary.AppendUvarint(buf, r.Version)
	buf = binary.AppendVarint(buf, int64(r.Active))
	if r.Shards != nil {
		buf = appendShardMap(appendInts(buf, r.Served), r.Shards)
	}
	return buf, nil
}

// parse decodes into r, reusing the arrays of its Commit's Touched and
// TableVersions.
func (r *replicaResponse) parse(d *writeset.Decoder) {
	tv := r.Commit.TableVersions
	r.Seq = d.Uvarint()
	flags := readFlags(d, flagResult|flagReadOnly|flagCrashed|flagReady|flagVersions|flagShards)
	r.Commit.ReadOnly, r.Crashed, r.Ready = flags&flagReadOnly != 0, flags&flagCrashed != 0, flags&flagReady != 0
	r.ErrCode = readErrCode(d)
	r.Err = d.Str()
	r.TxnID = d.Uvarint()
	r.Snapshot = d.Uvarint()
	r.Result = readResult(d, flags)
	r.Commit.Version = d.Uvarint()
	r.Commit.WrittenTables = readStrings(d)
	r.Commit.Touched = readSliceInto(d, r.Commit.Touched, (*writeset.Decoder).Str)
	r.Commit.TableVersions = nil
	if flags&flagVersions != 0 {
		r.Commit.TableVersions = readAligned(d, tv, len(r.Commit.Touched))
	}
	r.Version = d.Uvarint()
	r.Active = int(d.Varint())
	r.Served, r.Shards = nil, nil
	if flags&flagShards != 0 {
		r.Served, r.Shards = readInts(d), readShardMap(d)
	}
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
	codeStartTimeout
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
	case errors.Is(err, replica.ErrStartTimeout):
		return codeStartTimeout
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
	case codeStartTimeout:
		return fmt.Errorf("%w: %s", replica.ErrStartTimeout, msg)
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
	// next is the last issued wire txn ID. Its high bits are a random
	// prefix drawn per server (incarnationPrefix), so an ID issued by an
	// earlier process on the same address names nothing here.
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
	prefix, err := incarnationPrefix()
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &ReplicaServer{server: srv, rep: rep, txns: make(map[uint64]*openTxn), next: prefix}
	go s.acceptLoop(s.handle)
	return s, nil
}

// incarnationPrefix draws the high bits of a server's transaction IDs:
// 24 random bits above a 24-bit counter, so an ID is a 7-byte varint. A
// request the gateway retries on a fresh connection after a replica
// restart reaches the new process, and an end it carries must name none
// of that process's transactions. Random, not counted: a restarted
// process remembers nothing of the last. Two processes draw the same
// prefix with chance 2^-24; a counter that outgrows its 24 bits carries
// into the prefix, which keeps IDs unique within the process.
func incarnationPrefix() (uint64, error) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("wire: transaction ID prefix: %w", err)
	}
	return uint64(binary.LittleEndian.Uint32(b[:])&(1<<24-1)) << 24, nil
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
	var req replicaRequest
	var resp replicaResponse
	for {
		if d := s.opts.to.Idle; d > 0 {
			c.SetReadDeadline(time.Now().Add(d))
		}
		if err := fc.recv(&req); err != nil {
			return
		}
		if !guard.ok(req.Seq) {
			return
		}
		c.SetReadDeadline(time.Time{})
		for _, e := range req.Ends {
			s.end(e)
		}
		s.dispatch(&req, &resp)
		resp.Seq = req.Seq
		if d := s.opts.to.Call; d > 0 {
			c.SetWriteDeadline(time.Now().Add(d))
		}
		if err := fc.send(&resp); err != nil {
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

// end runs one end a request carried (see replicaEnd). It counts as the
// commit or abort request it stands for.
func (s *ReplicaServer) end(e replicaEnd) {
	o := opCommit
	if e.Abort {
		o = opAbort
	}
	s.obsReqs.Load().With(o.String()).Inc()
	ot, ok := s.getTxn(e.TxnID)
	if !ok {
		return
	}
	ot.mu.Lock()
	defer ot.mu.Unlock()
	tx := ot.tx
	tx.Excise(time.Duration(e.HeldUs) * time.Microsecond)
	if _, readOnly := tx.ReadOnlyCommit(); readOnly && !e.Abort {
		tx.Commit(false)
	} else {
		tx.Abort()
	}
	s.dropTxn(e.TxnID)
}

// dispatch serves one request into resp: the begin header, when
// present, opens the transaction the operation then runs in; otherwise
// TxnID names it.
func (s *ReplicaServer) dispatch(req *replicaRequest, resp *replicaResponse) {
	reqs := s.obsReqs.Load()
	if req.Begin {
		reqs.With("begin").Inc()
	}
	if req.Op != opNone {
		reqs.With(req.Op.String()).Inc()
	}
	*resp = replicaResponse{}
	fail := func(err error) {
		resp.Err = err.Error()
		resp.ErrCode = codeOf(err)
	}
	var tx *replica.Txn
	switch {
	case req.Op == opStatus:
		resp.Version = s.rep.Version()
		resp.Active = s.rep.Active()
		resp.Crashed = s.rep.Crashed()
		resp.Ready = true
		if cc := s.opts.cert; cc != nil {
			resp.Ready = cc.Serving()
			if resp.Shards = cc.ShardMap(); resp.Shards != nil {
				resp.Served = cc.opts.shards
			}
		}
		return
	case req.Begin:
		if cc := s.opts.cert; cc != nil && !cc.Serving() {
			fail(ErrUnavailable)
			return
		}
		// The start version may be a client's floor, which no version
		// need ever reach: wait for it at most half a call, so that the
		// refusal reaches the gateway inside its call deadline, and the
		// gateway's answer the client inside the client's.
		var err error
		tx, err = s.rep.BeginWithin(req.MinVersion, s.opts.to.Call/2, &req.Trace)
		if err != nil {
			fail(err)
			return
		}
		resp.Snapshot = tx.Snapshot()
	default:
		ot, ok := s.getTxn(req.TxnID)
		if !ok {
			fail(replica.ErrTxnDone)
			return
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
		fail(err)
		return
	}
	if !ended {
		resp.Commit, _ = tx.ReadOnlyCommit()
	}
}

// remoteReplica is the gateway's handle on one replica process. It
// implements lb.Node: the active count is tracked gateway-side (the
// gateway initiates every transaction), and health is derived from
// link errors plus status probes: it is down until one finds it ready.
type remoteReplica struct {
	id       int
	pool     *connPool
	balancer *lb.LoadBalancer
	active   atomic.Int64
	healthy  atomic.Bool
	// seeded is set once a ready status answer has seeded the tracker.
	seeded atomic.Bool
	// mismatched is set once a report of another map is logged.
	mismatched atomic.Bool

	// mu is a leaf: it guards ends for one append or one take.
	mu sync.Mutex
	// ends are the transactions ended here whose replica has not heard
	// so yet; the next request to the replica takes them all.
	// guarded by mu
	ends []heldEnd
}

// heldEnd is an end waiting for a request to carry it.
type heldEnd struct {
	txnID uint64
	abort bool
	since time.Time
}

func newRemoteReplica(id int, addr string, o *options, balancer *lb.LoadBalancer) *remoteReplica {
	hello := func() outFrame { return bareHello(linkReplica) }
	return &remoteReplica{id: id, pool: newConnPool(addr, hello, o.dialer(addr), o.to), balancer: balancer}
}

// ID implements lb.Node.
func (r *remoteReplica) ID() int { return r.id }

// Active implements lb.Node.
func (r *remoteReplica) Active() int { return int(r.active.Load()) }

// Crashed implements lb.Node.
func (r *remoteReplica) Crashed() bool { return !r.healthy.Load() }

// hold queues the end of transaction txnID for the next request to the
// replica; held is how long the end was held before it reached the
// gateway.
func (r *remoteReplica) hold(txnID uint64, abort bool, held time.Duration) {
	since := time.Now().Add(-held)
	r.mu.Lock()
	r.ends = append(r.ends, heldEnd{txnID: txnID, abort: abort, since: since})
	r.mu.Unlock()
}

// holding reports whether any end waits for a request.
func (r *remoteReplica) holding() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ends) > 0
}

// takeEnds hands every held end to one request, each stamped with how
// long it was held, in buf's array when it has room; nil when none is
// held. They are delivered at most once: a request whose exchange fails
// drops them.
func (r *remoteReplica) takeEnds(buf []replicaEnd) []replicaEnd {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ends) == 0 {
		return nil
	}
	now := time.Now()
	ends := buf[:0]
	for _, h := range r.ends {
		ends = append(ends, replicaEnd{TxnID: h.txnID, Abort: h.abort, HeldUs: uint64(now.Sub(h.since) / time.Microsecond)})
	}
	r.ends = r.ends[:0]
	return ends
}

// call performs one exchange into resp, carrying every held end in
// req.Ends (whose array it reuses). An answered error comes back with
// its response; a transport error leaves resp zero.
func (r *remoteReplica) call(req *replicaRequest, resp *replicaResponse) error {
	req.Ends = r.takeEnds(req.Ends)
	if err := r.pool.call(req, resp); err != nil {
		*resp = replicaResponse{}
		r.healthy.Store(false)
		return err
	}
	if resp.refused() {
		r.healthy.Store(false)
	}
	return decodeErr(resp.ErrCode, resp.Err)
}

// refused reports an answer that says the replica is not serving: it
// crashed, or its serve gate is closed.
func (r *replicaResponse) refused() bool {
	return r.ErrCode == codeCrashed || r.ErrCode == codeUnavailable
}

// probe refreshes the health flag; the gateway calls it periodically
// so crashed or gated replicas rejoin the routing set once they
// recover or catch up, and the held ends it carries wait at most one
// probe period. The shards and map it reports reach the balancer before
// the replica is marked up; a replica with another map stays down.
//
// The replica's first ready answer also seeds the balancer's tracker
// with its Vlocal (core.Tracker.Seed), before the replica is routable:
// a gateway started after commits it never saw must not route below
// them. In the lazy modes a commit's origin installs it before it is
// acknowledged, so once every replica has answered, the seed is at or
// above every acknowledged version.
func (r *remoteReplica) probe() {
	var resp replicaResponse
	err := r.call(&replicaRequest{Op: opStatus}, &resp)
	up := err == nil && !resp.Crashed && resp.Ready
	if up && resp.Shards != nil && !r.balancer.SetShardRouting(r.id, resp.Shards, resp.Served) {
		if !r.mismatched.Swap(true) {
			log.Printf("wire: gateway: replica %d reports a %d-shard map pinning %q, not the one it routes by; treating it as down",
				r.id, resp.Shards.N(), resp.Shards.Spec())
		}
		up = false
	}
	if up && !r.seeded.Swap(true) {
		r.balancer.Tracker().Seed(resp.Version)
	}
	r.healthy.Store(up)
}
