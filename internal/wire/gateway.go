package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math"
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
	// Op is opRegister, opExec or opCommit; opNone on a request that
	// carries nothing but the begin header, or, without one, nothing but
	// End.
	Op op

	// register; with Begin, an explicit table-set (lb.DispatchCtx)
	Name   string
	Tables []string

	// Begin marks the begin header: the session's next transaction
	// starts with this request — routed by TxnName or Tables, started at
	// the chosen replica under the mode's start rule and no lower than
	// Floor, the session's own — and Op then runs in it, all in the one
	// round trip. A header request that fails leaves no transaction
	// behind.
	Begin   bool
	TxnName string
	Floor   core.Floor
	// Trace is the client-side root span's context, propagated through
	// the lb route and the replica begin; zero from an untraced client.
	Trace dtrace.SpanContext

	// HasEnd says the request carries End, which ends the session's open
	// transaction before anything else in the request runs — see
	// clientEnd.
	HasEnd bool
	End    clientEnd

	// exec
	SQL    string
	Params []any
}

// clientEnd is the end of a transaction that needs no answer: an abort,
// or the commit of a transaction whose latest response said it had
// written nothing, and so already said what that commit returns. The
// client holds it until the session's next request, of any op, and that
// request carries it; an idle client sends it on a request of its own
// after probePeriod. The gateway does what the commit response would
// have made it do and passes the end on to the replica as a replicaEnd.
type clientEnd struct {
	Abort bool
	// HeldUs is how long the client held the end, in microseconds on its
	// own clock; the gateway adds its own hold before the replica excises
	// both (replica.Txn.Excise).
	HeldUs uint64
}

func (r *clientRequest) appendTo(buf []byte) ([]byte, error) {
	flags := flagIf(r.Begin, flagBegin) | flagIf(r.Trace != dtrace.SpanContext{}, flagTrace) | flagIf(r.HasEnd, flagEnd)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = appendSpan(append(buf, byte(r.Op), flags), flags, r.Trace)
	if r.HasEnd {
		// The abort bit rides in the low bit of the hold, as in replicaEnd.
		buf = binary.AppendUvarint(buf, r.End.HeldUs<<1|uint64(flagIf(r.End.Abort, 1)))
	}
	if r.Begin {
		buf = appendStrings(binary.AppendUvarint(buf, r.Floor.Version), r.Floor.Tables)
		var err error
		if buf, err = appendAligned(buf, r.Floor.Versions, r.Floor.Tables); err != nil {
			return nil, err
		}
	}
	buf = writeset.AppendString(buf, r.Name)
	buf = appendStrings(buf, r.Tables)
	buf = writeset.AppendString(buf, r.TxnName)
	buf = writeset.AppendString(buf, r.SQL)
	return writeset.AppendRow(buf, r.Params)
}

// parse decodes into r, reusing the arrays of its Params and Floor.
func (r *clientRequest) parse(d *writeset.Decoder) {
	r.Seq = d.Uvarint()
	r.Op = readOp(d)
	flags := readFlags(d, flagBegin|flagTrace|flagEnd)
	r.Begin = flags&flagBegin != 0
	r.Trace = readSpan(d, flags)
	r.HasEnd, r.End = flags&flagEnd != 0, clientEnd{}
	if r.HasEnd {
		held := d.Uvarint()
		r.End = clientEnd{Abort: held&1 != 0, HeldUs: held >> 1}
	}
	f := &r.Floor
	tables, versions := f.Tables, f.Versions
	*f = core.Floor{}
	if r.Begin {
		f.Version = d.Uvarint()
		if f.Tables = readSliceInto(d, tables, (*writeset.Decoder).Str); f.Tables != nil {
			f.Versions = readAligned(d, versions, len(f.Tables))
		}
	}
	r.Name = d.Str()
	r.Tables = readStrings(d)
	r.TxnName = d.Str()
	r.SQL = d.Str()
	r.Params = d.RowInto(r.Params)
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
	// read-only over ReadTables at its snapshot, and the client holds it
	// as a clientEnd.
	Version     uint64
	ReadOnly    bool
	WriteTables []string
	ReadTables  []string
	// TableVersions, aligned with ReadTables, are the replica's
	// per-table bounds (replica.CommitResult.TableVersions): a
	// fine-grained gateway forwards them for the session's floor, any
	// other sends none.
	TableVersions []uint64
}

func (r *clientResponse) appendTo(buf []byte) ([]byte, error) {
	flags := flagIf(r.Result != nil, flagResult) | flagIf(r.ReadOnly, flagReadOnly) | flagIf(r.TableVersions != nil, flagVersions)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = writeset.AppendString(append(buf, flags, byte(r.ErrCode)), r.Err)
	buf, err := appendResult(buf, r.Result)
	if err != nil {
		return nil, err
	}
	buf = binary.AppendUvarint(buf, r.Snapshot)
	buf = binary.AppendUvarint(buf, r.Version)
	buf = appendStrings(buf, r.WriteTables)
	buf = appendStrings(buf, r.ReadTables)
	if r.TableVersions == nil {
		return buf, nil
	}
	return appendAligned(buf, r.TableVersions, r.ReadTables)
}

func (r *clientResponse) parse(d *writeset.Decoder) {
	r.Seq = d.Uvarint()
	flags := readFlags(d, flagResult|flagReadOnly|flagVersions)
	r.ReadOnly = flags&flagReadOnly != 0
	r.ErrCode = readErrCode(d)
	r.Err = d.Str()
	r.Result = readResult(d, flags)
	r.Snapshot = d.Uvarint()
	r.Version = d.Uvarint()
	r.WriteTables = readStrings(d)
	r.ReadTables = readStrings(d)
	r.TableVersions = nil
	if flags&flagVersions != 0 {
		r.TableVersions = readAligned(d, nil, len(r.ReadTables))
	}
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
	g := &Gateway{server: srv, stop: make(chan struct{}), balancer: lb.New(mode, nil)}
	for i, a := range replicaAddrs {
		rr := newRemoteReplica(i, a, &g.opts, g.balancer)
		g.replicas = append(g.replicas, rr)
		g.balancer.AddNode(rr)
	}
	// A replica is down until a probe finds it ready: probe each once
	// before the first client.
	for _, r := range g.replicas {
		r.probe()
	}
	go g.acceptLoop(g.handle)
	go g.probeLoop()
	return g, nil
}

// Close stops the gateway: the probe loop, the listener and live client
// sessions, then it flushes the held ends and closes the replica
// connection pools.
func (g *Gateway) Close() error {
	close(g.stop)
	err := g.server.Close()
	g.FlushEnds()
	for _, r := range g.replicas {
		r.pool.close()
	}
	return err
}

// FlushEnds delivers every held end now: each replica holding one gets
// a status probe, which carries them. The probe loop does the same
// within one period; tests call this to reach quiescence without
// waiting for it.
func (g *Gateway) FlushEnds() {
	for _, r := range g.replicas {
		if r.holding() {
			r.probe()
		}
	}
}

// Balancer exposes the LB (tests).
func (g *Gateway) Balancer() *lb.LoadBalancer { return g.balancer }

// probePeriod is how often the gateway probes each replica's status.
const probePeriod = 500 * time.Millisecond

// probeLoop keeps replica health fresh so recovered replicas rejoin, and
// bounds how long an end is held on an idle link: one probe period.
func (g *Gateway) probeLoop() {
	tick := time.NewTicker(probePeriod)
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
// serial, so at most one transaction is open per connection. It is the
// connection's only: the session's floor is its client's, and nothing
// of the session outlives the connection here.
type gatewaySession struct {
	// id names the session in lb.route spans.
	id      string
	replica *remoteReplica
	txnID   uint64
	open    bool
	// readOnly says the open transaction had written nothing when its
	// replica last answered, so its commit may travel as an end; false
	// while a request is in flight.
	readOnly bool
	// fwd and resp are the session's exchange with its replica, reused
	// from request to request, and ends the array fwd carries held ends
	// in.
	fwd  replicaRequest
	resp replicaResponse
	ends []replicaEnd
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
	sess := &gatewaySession{id: strings.Clone(hello.SessionID)}
	g.sessions.Add(1)
	defer g.sessions.Add(-1)
	defer func() {
		if sess.open {
			sess.replica.hold(sess.txnID, true, 0)
			sess.end()
			select {
			case <-g.stop:
				// Close may have flushed already: no request follows.
				sess.replica.probe()
			default:
			}
		}
	}()
	var guard seqGuard
	var req clientRequest
	var resp clientResponse
	for {
		if err := fc.recv(&req); err != nil {
			return
		}
		if !guard.ok(req.Seq) {
			return
		}
		if req.HasEnd && !g.runEnd(sess, &req.End) {
			log.Printf("wire: gateway: closing %s: commit end out of place", c.RemoteAddr())
			return
		}
		g.dispatch(sess, &req, &resp)
		resp.Seq = req.Seq
		if err := fc.send(&resp); err != nil {
			return
		}
	}
}

// runEnd runs the end a request carried, before the request itself and
// whatever becomes of it, and reports whether it was one that may travel
// so: an abort, or the commit of an open transaction that had written
// nothing when its replica last answered. That commit is local to the
// replica, its result is already at the client, which folded it into
// the session's floor, and it moves no balancer state: the gateway
// holds the end for the next request to the replica, which releases the
// snapshot there. The replica excises the client's hold and the
// gateway's alike. A commit end out of place is refused: the caller
// closes the connection, which aborts what was open. An abort with
// nothing open ends nothing.
func (g *Gateway) runEnd(sess *gatewaySession, e *clientEnd) bool {
	o := opAbort
	if !e.Abort {
		if !sess.open || !sess.readOnly {
			return false
		}
		o = opCommit
	}
	g.obsReqs.Load().With(o.String()).Inc()
	if sess.open {
		sess.end()
		held := time.Duration(min(e.HeldUs, math.MaxInt64/uint64(time.Microsecond))) * time.Microsecond
		sess.replica.hold(sess.txnID, e.Abort, held)
	}
	return true
}

// dispatch serves one client request into resp. Apart from register,
// every request is one request to the transaction's replica: a begin
// header is routed here and forwarded on it, so starting a transaction
// and running its first operation cost one round trip on each link.
func (g *Gateway) dispatch(sess *gatewaySession, req *clientRequest, resp *clientResponse) {
	reqs := g.obsReqs.Load()
	if req.Begin {
		reqs.With("begin").Inc()
	}
	if req.Op != opNone {
		reqs.With(req.Op.String()).Inc()
	}
	*resp = clientResponse{}
	fail := func(err error) {
		resp.Err = err.Error()
		resp.ErrCode = codeOf(err)
	}
	switch req.Op {
	case opRegister:
		// The registry keeps these strings for good.
		tables := make([]string, len(req.Tables))
		for i, t := range req.Tables {
			tables[i] = strings.Clone(t)
		}
		g.balancer.RegisterTxn(strings.Clone(req.Name), tables)
		return
	case opNone, opExec, opCommit:
	default:
		fail(fmt.Errorf("wire: no client op %q", req.Op))
		return
	}
	if req.Op == opNone && !req.Begin {
		// The request carried an end and nothing else: the client went
		// idle or is closing. No later request of this session will carry
		// the end on, so its replica gets it now.
		if r := sess.replica; r != nil && r.holding() {
			r.probe()
		}
		return
	}
	switch {
	case req.Begin && sess.open:
		fail(errors.New("wire: transaction already open on this session"))
		return
	case !req.Begin && !sess.open:
		fail(errors.New("wire: no open transaction"))
		return
	}
	fwd, r := &sess.fwd, &sess.resp
	*fwd = replicaRequest{Op: req.Op, TxnID: sess.txnID, SQL: req.SQL, Params: req.Params}
	// A header request the replica refused with an answer — its gate is
	// closed or it crashed — started nothing there: route it again. The
	// refusal marked that replica down, so the balancer picks another;
	// after every other has refused too, the refusal is the answer. A
	// transport error is not routed again: the request may have run.
	var err error
	for refusals := 0; ; refusals++ {
		if req.Begin {
			route, rerr := g.balancer.DispatchCtx(sess.id, req.TxnName, req.Tables, req.Floor, req.Trace)
			if rerr != nil {
				fail(rerr)
				return
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
		sess.readOnly = false
		fwd.Ends = sess.ends
		err = sess.replica.call(fwd, r)
		if fwd.Ends != nil {
			sess.ends = fwd.Ends
		}
		if err == nil {
			break
		}
		// A failed header request leaves no transaction at the replica,
		// and neither does a statement the replica aborted on.
		if sess.open && (req.Begin || errors.Is(err, replica.ErrEarlyAbort) || errors.Is(err, replica.ErrCertifyConflict) || errors.Is(err, replica.ErrCrashed)) {
			sess.end()
		}
		if !req.Begin || !r.refused() || refusals >= len(g.replicas)-1 {
			fail(err)
			return
		}
	}
	if req.Begin {
		sess.txnID = r.TxnID
	}
	resp.Snapshot = r.Snapshot
	resp.Result = r.Result
	resp.ReadOnly = r.Commit.ReadOnly
	resp.ReadTables = r.Commit.Touched
	if g.balancer.Mode() == core.Fine {
		resp.TableVersions = r.Commit.TableVersions
	}
	if req.Op == opCommit {
		g.balancer.ObserveCommit(sess.id, r.Commit)
		resp.Version = r.Commit.Version
		resp.WriteTables = r.Commit.WrittenTables
	} else {
		sess.readOnly = r.Commit.ReadOnly
	}
}
