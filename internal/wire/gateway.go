package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync/atomic"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/lb"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/writeset"
)

// Client-link protocol (application ⇄ gateway).

type clientHello struct {
	SessionID string
}

func (h *clientHello) appendTo(buf []byte) ([]byte, error) {
	return writeset.AppendString(appendHello(buf, linkClient), h.SessionID), nil
}

func (h *clientHello) parse(d *writeset.Decoder) { h.SessionID = d.Str() }

type clientRequest struct {
	// Seq numbers requests per connection; see seqGuard.
	Seq uint64
	// Op is opRegister, opExec, opCommit or opAbort; opNone on a request
	// that carries nothing but the begin header.
	Op op

	// register; with Begin, an explicit table-set (lb.DispatchCtx)
	Name   string
	Tables []string

	// Begin marks the begin header: the session's next transaction
	// starts with this request — routed by TxnName or Tables, started at
	// the chosen replica under the mode's start rule — and Op then runs
	// in it, all in the one round trip. A header request that fails
	// leaves no transaction behind.
	Begin   bool
	TxnName string
	// Trace is the client-side root span's context, propagated through
	// the lb route and the replica begin; zero from an untraced client.
	Trace dtrace.SpanContext

	// exec
	SQL    string
	Params []any

	// OneWay marks a frame that is not answered (see replicaRequest): an
	// abort always, a commit when the open transaction's latest response
	// said ReadOnly.
	OneWay bool
}

func (r *clientRequest) appendTo(buf []byte) ([]byte, error) {
	flags := flagIf(r.Begin, flagBegin) | flagIf(r.Trace != dtrace.SpanContext{}, flagTrace) | flagIf(r.OneWay, flagOneWay)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = appendSpan(append(buf, byte(r.Op), flags), flags, r.Trace)
	buf = writeset.AppendString(buf, r.Name)
	buf = appendStrings(buf, r.Tables)
	buf = writeset.AppendString(buf, r.TxnName)
	buf = writeset.AppendString(buf, r.SQL)
	return writeset.AppendRow(buf, r.Params)
}

func (r *clientRequest) parse(d *writeset.Decoder) {
	r.Seq = d.Uvarint()
	r.Op = readOp(d)
	flags := readFlags(d, flagBegin|flagTrace|flagOneWay)
	r.Begin, r.OneWay = flags&flagBegin != 0, flags&flagOneWay != 0
	r.Trace = readSpan(d, flags)
	r.Name = d.Str()
	r.Tables = readStrings(d)
	r.TxnName = d.Str()
	r.SQL = d.Str()
	r.Params = d.Row()
}

type clientResponse struct {
	Seq     uint64
	Err     string
	ErrCode errCode
	Result  *sql.Result
	// begin header / commit
	Snapshot uint64
	// commit; ReadOnly and ReadTables also on every response that leaves
	// open a transaction that has written nothing: its commit would be
	// read-only over ReadTables at its snapshot, and the client sends it
	// one-way.
	Version     uint64
	ReadOnly    bool
	WriteTables []string
	ReadTables  []string
}

func (r *clientResponse) appendTo(buf []byte) ([]byte, error) {
	flags := flagIf(r.Result != nil, flagResult) | flagIf(r.ReadOnly, flagReadOnly)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = writeset.AppendString(append(buf, flags, byte(r.ErrCode)), r.Err)
	buf, err := appendResult(buf, r.Result)
	if err != nil {
		return nil, err
	}
	buf = binary.AppendUvarint(buf, r.Snapshot)
	buf = binary.AppendUvarint(buf, r.Version)
	buf = appendStrings(buf, r.WriteTables)
	return appendStrings(buf, r.ReadTables), nil
}

func (r *clientResponse) parse(d *writeset.Decoder) {
	r.Seq = d.Uvarint()
	flags := readFlags(d, flagResult|flagReadOnly)
	r.ReadOnly = flags&flagReadOnly != 0
	r.ErrCode = readErrCode(d)
	r.Err = d.Str()
	r.Result = readResult(d, flags)
	r.Snapshot = d.Uvarint()
	r.Version = d.Uvarint()
	r.WriteTables = readStrings(d)
	r.ReadTables = readStrings(d)
}

// Gateway is the networked load balancer: it accepts client sessions,
// routes transactions to replica processes per the consistency mode,
// and maintains the version tracker from commit acknowledgments.
type Gateway struct {
	*server
	balancer *lb.LoadBalancer
	replicas []*remoteReplica
	stop     chan struct{}
	sessions atomic.Int64
}

// EnableObs registers the gateway's live metrics with reg: client
// request counts per operation, open session count, and the embedded
// load balancer's routing/version instruments. Call before traffic.
func (g *Gateway) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	g.server.EnableObs(reg)
	reg.GaugeFunc("sconrep_gateway_sessions",
		"Client sessions currently connected to the gateway.",
		func() float64 { return float64(g.sessions.Load()) })
	g.balancer.EnableObs(reg)
}

// ServeGateway starts a gateway on addr routing to the given replica
// addresses under the given consistency mode.
func ServeGateway(addr string, mode core.Mode, replicaAddrs []string, opts ...Option) (*Gateway, error) {
	srv, err := listen("gateway", addr, opts)
	if err != nil {
		return nil, err
	}
	g := &Gateway{server: srv, stop: make(chan struct{})}
	nodes := make([]lb.Node, 0, len(replicaAddrs))
	for i, a := range replicaAddrs {
		rr := newRemoteReplica(i, a, &g.opts)
		g.replicas = append(g.replicas, rr)
		nodes = append(nodes, rr)
	}
	g.balancer = lb.New(mode, nodes)
	go g.acceptLoop(g.handle)
	go g.probeLoop()
	return g, nil
}

// Close stops the gateway: the probe loop, the listener and live client
// sessions, and the replica connection pools.
func (g *Gateway) Close() error {
	close(g.stop)
	err := g.server.Close()
	for _, r := range g.replicas {
		r.pool.close()
	}
	return err
}

// Balancer exposes the LB (tests).
func (g *Gateway) Balancer() *lb.LoadBalancer { return g.balancer }

// probeLoop keeps replica health fresh so recovered replicas rejoin.
func (g *Gateway) probeLoop() {
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			for _, r := range g.replicas {
				r.probe()
			}
		}
	}
}

// gatewaySession is the per-connection session state: sessions are
// serial, so at most one transaction is open per connection.
type gatewaySession struct {
	id      string
	replica *remoteReplica
	txnID   uint64
	open    bool
	// roCommit is what committing the open transaction would return, as
	// of its replica's latest response; unset (not ReadOnly) once the
	// transaction has written, and while a request is in flight.
	roCommit replica.CommitResult
}

// end closes the session's open transaction in the gateway's books.
func (s *gatewaySession) end() {
	s.open = false
	s.replica.active.Add(-1)
}

func (g *Gateway) handle(fc *frameConn) {
	c := fc.c
	var hello clientHello
	if _, ok := g.hello(fc, string(linkClient), &hello); !ok {
		return
	}
	// A session may think for as long as it likes between requests: only
	// the hello runs under the idle deadline.
	c.SetReadDeadline(time.Time{})
	// The balancer keeps the session id until EndSession.
	sess := &gatewaySession{id: strings.Clone(hello.SessionID)}
	g.sessions.Add(1)
	defer g.sessions.Add(-1)
	defer func() {
		if sess.open {
			sess.replica.send(&replicaRequest{Op: opAbort, TxnID: sess.txnID})
			sess.end()
		}
		g.balancer.EndSession(sess.id)
	}()
	var guard seqGuard
	for {
		var req clientRequest
		if err := fc.recv(&req); err != nil {
			return
		}
		if !guard.ok(req.Seq) {
			return
		}
		if req.OneWay {
			if !g.oneWay(sess, &req) {
				log.Printf("wire: gateway: closing %s: one-way %q frame out of place", c.RemoteAddr(), req.Op)
				return
			}
			continue
		}
		resp := g.dispatch(sess, &req)
		resp.Seq = req.Seq
		if err := fc.send(resp); err != nil {
			return
		}
	}
}

// oneWay serves a frame the client does not wait on, and reports
// whether it was one that may travel so: an abort, or the commit of an
// open transaction that had written nothing when its replica last
// answered. That commit is local to the replica and its result is
// already here, so the gateway does now what the commit response used to
// make it do — before it reads the session's next request, the order an
// answered commit gave — and passes the frame on to release the
// snapshot. Anything else is refused: the caller closes the connection,
// which aborts what was open.
func (g *Gateway) oneWay(sess *gatewaySession, req *clientRequest) bool {
	switch {
	case req.Begin:
		return false
	case req.Op == opAbort:
	case req.Op == opCommit && sess.open && sess.roCommit.ReadOnly:
		g.balancer.ObserveCommit(sess.id, sess.roCommit)
	default:
		return false
	}
	g.obsReqs.Load().With(req.Op.String()).Inc()
	if sess.open {
		sess.end()
		sess.replica.send(&replicaRequest{Op: req.Op, TxnID: sess.txnID})
	}
	return true
}

// dispatch serves one client request. Apart from register, every
// request is one request to the transaction's replica: a begin header
// is routed here and forwarded on it, so starting a transaction and
// running its first operation cost one round trip on each link.
func (g *Gateway) dispatch(sess *gatewaySession, req *clientRequest) *clientResponse {
	reqs := g.obsReqs.Load()
	if req.Begin {
		reqs.With("begin").Inc()
	}
	if req.Op != opNone {
		reqs.With(req.Op.String()).Inc()
	}
	resp := &clientResponse{}
	fail := func(err error) *clientResponse {
		resp.Err = err.Error()
		resp.ErrCode = codeOf(err)
		return resp
	}
	switch req.Op {
	case opRegister:
		// The registry keeps these strings for good.
		tables := make([]string, len(req.Tables))
		for i, t := range req.Tables {
			tables[i] = strings.Clone(t)
		}
		g.balancer.RegisterTxn(strings.Clone(req.Name), tables)
		return resp
	case opNone, opExec, opCommit:
	default:
		return fail(fmt.Errorf("wire: no answered client op %q", req.Op))
	}
	switch {
	case req.Begin && sess.open:
		return fail(errors.New("wire: transaction already open on this session"))
	case !req.Begin && !sess.open:
		return fail(errors.New("wire: no open transaction"))
	}
	fwd := &replicaRequest{Op: req.Op, TxnID: sess.txnID, SQL: req.SQL, Params: req.Params}
	// A header request the replica refused with an answer — its gate is
	// closed or it crashed — started nothing there: route it again. The
	// refusal marked that replica down, so the balancer picks another;
	// after every other has refused too, the refusal is the answer. A
	// transport error is not routed again: the request may have run.
	var r *replicaResponse
	var err error
	for refusals := 0; ; refusals++ {
		if req.Begin {
			route, rerr := g.balancer.DispatchCtx(sess.id, req.TxnName, req.Tables, req.Trace)
			if rerr != nil {
				return fail(rerr)
			}
			sess.replica = route.Node.(*remoteReplica)
			sess.replica.active.Add(1)
			sess.open = true
			// An untraced client supplies no span context;
			// fall back to the route span so the replica's work still joins
			// a gateway-rooted trace instead of fragmenting.
			fwd.Begin, fwd.MinVersion, fwd.Trace = true, route.MinVersion, req.Trace
			if !fwd.Trace.Valid() {
				fwd.Trace = route.Trace
			}
		}
		if req.Op == opCommit {
			fwd.Eager = g.balancer.Mode() == core.Eager
			sess.end()
		}
		sess.roCommit = replica.CommitResult{}
		r, err = sess.replica.call(fwd)
		if err == nil {
			break
		}
		// A failed header request leaves no transaction at the replica,
		// and neither does a statement the replica aborted on.
		if sess.open && (req.Begin || errors.Is(err, replica.ErrEarlyAbort) || errors.Is(err, replica.ErrCertifyConflict) || errors.Is(err, replica.ErrCrashed)) {
			sess.end()
		}
		if !req.Begin || r == nil || !r.refused() || refusals >= len(g.replicas)-1 {
			return fail(err)
		}
	}
	if req.Begin {
		sess.txnID = r.TxnID
	}
	resp.Snapshot = r.Snapshot
	resp.Result = r.Result
	resp.ReadOnly = r.Commit.ReadOnly
	resp.ReadTables = r.Touched
	if req.Op == opCommit {
		// The tracker keeps table names as map keys for good.
		for i, t := range r.Commit.WrittenTables {
			r.Commit.WrittenTables[i] = strings.Clone(t)
		}
		g.balancer.ObserveCommit(sess.id, r.Commit)
		resp.Version = r.Commit.Version
		resp.WriteTables = r.Commit.WrittenTables
	} else {
		sess.roCommit = r.Commit
	}
	return resp
}
