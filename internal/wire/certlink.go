package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/writeset"
)

// Certifier-link protocol. Every connection starts with certHello;
// Kind selects streaming (linkCertSub) or request/response
// (linkCertReq).
type certHello struct {
	Kind      link
	ReplicaID int
	VLocal    uint64 // replica's durable version, for StartAt adoption
	// Shards restricts the refresh subscription to the listed
	// certification shards (nil or empty = all). Versions certified
	// entirely elsewhere arrive as skip markers — refreshes with a nil
	// writeset — keeping the replica's version order contiguous at a
	// fraction of the bytes.
	Shards []int
}

func (h *certHello) appendTo(buf []byte) ([]byte, error) {
	buf = binary.AppendVarint(appendHello(buf, h.Kind), int64(h.ReplicaID))
	return appendInts(binary.AppendUvarint(buf, h.VLocal), h.Shards), nil
}

// parse reads what follows the hello prefix; recvHello sets Kind.
func (h *certHello) parse(d *writeset.Decoder) {
	h.ReplicaID = int(d.Varint())
	h.VLocal = d.Uvarint()
	h.Shards = readInts(d)
}

// subAck answers a subscription hello. The server writes it after the
// subscription is registered, so Version — the certifier's version at
// that moment — bounds what the stream will not carry: everything
// above it is delivered on the stream, everything up to it is the
// subscriber's to backfill.
type subAck struct {
	Version uint64
	// Acks asks the subscriber for appliedAck frames on this stream. The
	// certifier sets it when something counts them — the eager mode's
	// global commit — and a subscriber that is not asked sends none.
	Acks bool
	// Lease is the certifier's subscription lease: how long it keeps the
	// subscription, and eager commits waiting for it, after the stream
	// drops. The subscriber derives its serve grace from it, or refuses
	// it (CheckLease).
	Lease time.Duration
}

func (a *subAck) appendTo(buf []byte) ([]byte, error) {
	buf = append(appendHello(buf, linkSubAck), flagIf(a.Acks, flagAcks))
	buf = binary.AppendUvarint(buf, a.Version)
	return binary.AppendVarint(buf, int64(a.Lease)), nil
}

func (a *subAck) parse(d *writeset.Decoder) {
	a.Acks = readFlags(d, flagAcks) != 0
	a.Version = d.Uvarint()
	a.Lease = time.Duration(d.Varint())
}

// appliedAck is the one frame a subscriber writes on its subscription
// connection after the hello: every refresh up to Version is applied.
// It is one-way and cumulative, so a lost, coalesced or duplicated
// frame costs nothing a later one does not repair.
type appliedAck struct {
	Version uint64
}

func (a *appliedAck) appendTo(buf []byte) ([]byte, error) {
	return binary.AppendUvarint(buf, a.Version), nil
}

func (a *appliedAck) parse(d *writeset.Decoder) { a.Version = d.Uvarint() }

// certRequest is the request envelope on linkCertReq connections;
// exactly one field group is set per call.
type certRequest struct {
	// Seq numbers requests per connection; see seqGuard.
	Seq uint64
	Op  op // opCertify, opHistory, opTableVers, opUnsubscribe

	// certify
	Origin   int
	TxnID    uint64
	Snapshot uint64
	WS       *writeset.WriteSet
	// Trace is the committing span's context; zero when untraced.
	Trace dtrace.SpanContext

	// unsubscribe
	ReplicaID int

	// history
	After uint64
	// Shards filters the history page like a partial subscription
	// filters the stream: entries certified entirely outside these
	// shards come back as skip markers (nil writeset). Nil = full
	// fidelity.
	Shards []int
}

func (r *certRequest) appendTo(buf []byte) ([]byte, error) {
	flags := flagIf(r.Trace != dtrace.SpanContext{}, flagTrace)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = appendSpan(append(buf, byte(r.Op), flags), flags, r.Trace)
	buf = binary.AppendVarint(buf, int64(r.Origin))
	buf = binary.AppendUvarint(buf, r.TxnID)
	buf = binary.AppendUvarint(buf, r.Snapshot)
	buf, err := r.WS.AppendTo(buf)
	if err != nil {
		return nil, err
	}
	buf = binary.AppendVarint(buf, int64(r.ReplicaID))
	buf = binary.AppendUvarint(buf, r.After)
	return appendInts(buf, r.Shards), nil
}

func (r *certRequest) parse(d *writeset.Decoder) {
	r.Seq = d.Uvarint()
	r.Op = readOp(d)
	r.Trace = readSpan(d, readFlags(d, flagTrace))
	r.Origin = int(d.Varint())
	r.TxnID = d.Uvarint()
	r.Snapshot = d.Uvarint()
	r.WS = d.WriteSet()
	r.ReplicaID = int(d.Varint())
	r.After = d.Uvarint()
	r.Shards = readInts(d)
}

// certResponse is the response envelope.
type certResponse struct {
	Seq      uint64
	Err      string
	Decision certifier.Decision
	History  []certifier.Refresh
	// TableVers answers opTableVers: the latest commit version that
	// wrote each table.
	TableVers map[string]uint64
}

func (r *certResponse) appendTo(buf []byte) ([]byte, error) {
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = writeset.AppendString(append(buf, flagIf(r.Decision.Commit, flagCommit)), r.Err)
	buf = binary.AppendUvarint(buf, r.Decision.Version)
	buf = writeset.AppendLen(buf, len(r.History), r.History == nil)
	for i := range r.History {
		var err error
		if buf, err = appendRefresh(buf, &r.History[i]); err != nil {
			return nil, err
		}
	}
	return appendVersions(buf, r.TableVers), nil
}

func (r *certResponse) parse(d *writeset.Decoder) {
	r.Seq = d.Uvarint()
	r.Decision.Commit = readFlags(d, flagCommit) != 0
	r.Err = d.Str()
	r.Decision.Version = d.Uvarint()
	r.History = readSlice(d, readRefresh)
	r.TableVers = readVersions(d)
}

func (r *certRequest) setSeq(n uint64) { r.Seq = n }
func (r *certResponse) seq() uint64    { return r.Seq }

// CertServer exposes a certifier on a TCP listener. Its request counter
// also counts, as op="applied", the acknowledgment frames received on
// subscription streams. Closing it leaves subscriptions to their
// leases: a certifier server restart is indistinguishable from a
// partition to the replicas, and they resubscribe the same way.
type CertServer struct {
	*server
	cert *certifier.Certifier

	mu sync.Mutex
	// streamGen numbers each replica's subscription streams so a
	// superseded stream (the replica reconnected) never cancels its
	// successor's subscription.
	// guarded by mu
	streamGen map[int]int
}

// ServeCertifier starts serving cert on addr and returns the server.
// While the certifier has certified nothing, replica hellos adopt
// their live VLocal via StartAt, aligning the version counter with
// deterministically bootstrapped replicas (and with replicas that are
// ahead after a certifier restart without its decision log).
func ServeCertifier(cert *certifier.Certifier, addr string, opts ...Option) (*CertServer, error) {
	srv, err := listen("certifier", addr, opts)
	if err != nil {
		return nil, err
	}
	s := &CertServer{server: srv, cert: cert, streamGen: make(map[int]int)}
	go s.acceptLoop(s.handle)
	return s, nil
}

func (s *CertServer) handle(fc *frameConn) {
	var hello certHello
	var ok bool
	if hello.Kind, ok = s.hello(fc, string(linkCertReq)+string(linkCertSub), &hello); !ok {
		return
	}
	s.maybeAdopt(hello)
	switch hello.Kind {
	case linkCertSub:
		s.streamRefreshes(fc, hello)
	case linkCertReq:
		s.serveRequests(fc)
	}
}

// maybeAdopt aligns a decision-free certifier with bootstrapped
// replicas. Tried on every hello, not just the first: hellos carry
// the replica's live Vlocal, so one racing an in-progress bootstrap
// can land a partial version that a later hello (or cluster.LoadData)
// must raise. StartAt itself refuses to move once any
// decision exists, or to move backwards.
func (s *CertServer) maybeAdopt(h certHello) {
	if h.VLocal == 0 || h.VLocal <= s.cert.Version() {
		return
	}
	if err := s.cert.StartAt(h.VLocal); err == nil {
		log.Printf("wire: certifier adopted start version %d from replica %d", h.VLocal, h.ReplicaID)
	}
}

// streamRefreshes serves one subscription connection in both
// directions. A writer goroutine pumps the subscription to the replica,
// one frame per Take batch — never per refresh: the mailbox coalesces
// bursts, so a backlogged replica receives a few large frames instead
// of a frame per committed transaction. This goroutine reads the
// replica's appliedAck frames. Either side's failure closes the
// connection, which ends the other.
func (s *CertServer) streamRefreshes(fc *frameConn, hello certHello) {
	c, replicaID := fc.c, hello.ReplicaID
	// A shard this certifier does not have means the two roles were
	// started with different -shards: refuse, so the replica's gate
	// never opens, rather than serve it a stream of skip markers.
	for _, id := range hello.Shards {
		if id < 0 || id >= s.cert.Shards() {
			log.Printf("wire: certifier: replica %d subscribes to shard %d, certifier has %d shard(s); closing its stream", replicaID, id, s.cert.Shards())
			return
		}
	}
	s.mu.Lock()
	s.streamGen[replicaID]++
	gen := s.streamGen[replicaID]
	s.mu.Unlock()
	sub := s.cert.SubscribeShards(replicaID, hello.Shards)
	defer s.releaseStream(replicaID, gen, sub)
	// A replica that is asked for no acks never writes again, and one
	// that is writes only when it applies: reads have no deadline, and
	// return when the peer closes or half-closes.
	c.SetReadDeadline(time.Time{})
	// The ack is written only now that the subscription is registered,
	// and carries the version read after it: a commit certified before
	// registration is at or below that version (the subscriber's
	// backfill), a later one is in the mailbox.
	if d := s.opts.to.Call; d > 0 {
		c.SetWriteDeadline(time.Now().Add(d))
	}
	if err := fc.send(&subAck{Version: s.cert.Version(), Acks: sub.GlobalTracked(), Lease: s.opts.subLease}); err != nil {
		return
	}
	go func() {
		defer c.Close()
		for {
			batch, ok := sub.Take()
			if !ok {
				return
			}
			if d := s.opts.to.Call; d > 0 {
				c.SetWriteDeadline(time.Now().Add(d))
			}
			if err := fc.send(refreshBatch(batch)); err != nil {
				return
			}
		}
	}()
	for {
		var ack appliedAck
		if err := fc.recv(&ack); err != nil {
			return
		}
		// An ack clears the replica from every eager wait at or below
		// its version, so one for a version nobody assigned would
		// release commits the replica never saw.
		if v := s.cert.Version(); ack.Version > v {
			log.Printf("wire: certifier: replica %d acknowledged version %d, latest is %d; closing its stream", replicaID, ack.Version, v)
			return
		}
		s.obsReqs.Load().With("applied").Inc()
		s.cert.Applied(replicaID, ack.Version)
	}
}

// releaseStream runs when a subscription stream dies. If the stream is
// still the replica's current one, the subscription is kept alive for
// the lease period — a partitioned replica that reconnects within it
// resumes without ever being treated as crashed. Cancellation goes
// through Subscription.Cancel, which is a no-op once a newer
// subscription (possibly via another server on the same certifier)
// has replaced this one.
func (s *CertServer) releaseStream(replicaID, gen int, sub *certifier.Subscription) {
	s.mu.Lock()
	current := s.streamGen[replicaID] == gen
	s.mu.Unlock()
	if !current {
		return
	}
	time.AfterFunc(s.opts.subLease, func() {
		s.mu.Lock()
		expired := s.streamGen[replicaID] == gen
		s.mu.Unlock()
		if expired {
			sub.Cancel()
		}
	})
}

func (s *CertServer) serveRequests(fc *frameConn) {
	c := fc.c
	var guard seqGuard
	for {
		if d := s.opts.to.Idle; d > 0 {
			c.SetReadDeadline(time.Now().Add(d))
		}
		var req certRequest
		if err := fc.recv(&req); err != nil {
			return
		}
		if !guard.ok(req.Seq) {
			return
		}
		c.SetReadDeadline(time.Time{})
		s.obsReqs.Load().With(req.Op.String()).Inc()
		var resp certResponse
		resp.Seq = req.Seq
		switch req.Op {
		case opCertify:
			// The decoded writeset is this request's alone (its strings
			// alias the request frame, which nothing else holds).
			d, err := s.cert.CertifyCtx(req.Origin, req.TxnID, req.Snapshot, req.WS, req.Trace)
			if err != nil {
				resp.Err = err.Error()
			}
			resp.Decision = d
		case opHistory:
			resp.History = s.cert.FilterUnserved(s.cert.History(req.After), req.Shards)
		case opTableVers:
			resp.TableVers = s.cert.TableVersions()
		case opUnsubscribe:
			s.cert.Unsubscribe(req.ReplicaID)
		default:
			resp.Err = fmt.Sprintf("wire: unknown certifier op %q", req.Op)
		}
		if d := s.opts.to.Call; d > 0 {
			c.SetWriteDeadline(time.Now().Add(d))
		}
		if err := fc.send(&resp); err != nil {
			return
		}
	}
}

// CertClient implements replica.CertService against a remote
// certifier. Unlike the pre-hardening client, its refresh subscription
// survives the certifier link: the local queue stays open across
// reconnects, each reconnect backfills the refreshes missed (from the
// replica's live Vlocal when WithVLocal is given), and request calls
// retry transient transport failures with bounded exponential backoff.
type CertClient struct {
	addr      string
	replicaID int
	vlocal    uint64
	opts      options
	pool      *connPool

	closed    chan struct{}
	closeOnce sync.Once

	mu sync.Mutex
	// queue is the current subscription's refresh queue: the certifier's
	// mailbox type, filled from the stream.
	// guarded by mu
	queue *certifier.Mailbox
	// sub is the live subscription stream connection.
	// guarded by mu
	sub net.Conn
	// subGen numbers subscriptions so stale loops exit.
	// guarded by mu
	subGen int

	// Stream health for the replica serve gate.
	streamUp  atomic.Bool
	downSince atomic.Int64 // unix nanos
	// tracked is the latest subAck's Acks bit, read through every
	// subscription Subscribe returned.
	tracked atomic.Bool
	// serveFloor is the certifier version observed at the last
	// (re)subscribe: everything the certifier may already have
	// acknowledged to clients. A replica must not serve strong reads
	// until Vlocal reaches it (see Ready).
	serveFloor atomic.Uint64
	// lease is the latest subAck's lease in nanoseconds, 0 before the
	// first and after one this client refused (see Grace).
	lease atomic.Int64
	// refused logs the first lease this client cannot honour.
	refused sync.Once

	// ackMu hands apply acknowledgments from Applied to the writer of
	// the current stream's acks. It is never held across I/O.
	// locks after CertClient.mu
	ackMu sync.Mutex
	// applied is the highest version Applied was called with.
	// guarded by ackMu
	applied uint64
	// ackWake wakes the ack writer of the stream whose subAck asked for
	// apply acknowledgments; nil while no such stream is up.
	// guarded by ackMu
	ackWake chan struct{}
	// ackGen is the subscription generation that set ackWake: a stream
	// superseded by Subscribe must not displace its successor's.
	// guarded by ackMu
	ackGen int
}

var _ replica.CertService = (*CertClient)(nil)

// DialCertifier connects a replica to a remote certifier. vlocal is
// the replica's bootstrapped version (for StartAt adoption).
func DialCertifier(addr string, replicaID int, vlocal uint64, opts ...Option) *CertClient {
	o := buildOptions(opts)
	// The hello's VLocal drives fresh-certifier adoption. It must be the
	// replica's LIVE version, not the dial-time snapshot: a certifier
	// restarted without its decision log adopts from the first hello it
	// sees, and adopting a stale version would hand out already-used
	// commit versions (crashing every replica past the stale point).
	hello := func() outFrame {
		v := vlocal
		if o.vlocalFn != nil {
			v = o.vlocalFn()
		}
		return &certHello{Kind: linkCertReq, ReplicaID: replicaID, VLocal: v}
	}
	return &CertClient{
		addr:      addr,
		replicaID: replicaID,
		vlocal:    vlocal,
		opts:      o,
		pool:      newConnPool(addr, hello, o.dialer(addr), o.to),
		closed:    make(chan struct{}),
	}
}

var errClientClosed = errors.New("wire: certifier client closed")

// callRetry performs one certifier call, retrying transport failures
// with exponential backoff until the client closes or, when it is
// non-zero, maxElapsed runs out. Application-level responses —
// including abort decisions and certifier errors — return immediately;
// only the transport retries.
func (c *CertClient) callRetry(req certRequest, maxElapsed time.Duration) (certResponse, error) {
	b := c.opts.backoff
	delay := b.Min
	start := time.Now()
	var resp certResponse
	for {
		select {
		case <-c.closed:
			return resp, errClientClosed
		default:
		}
		resp = certResponse{}
		err := c.pool.call(&req, &resp)
		if err == nil {
			return c.appErr(resp)
		}
		if maxElapsed > 0 && time.Since(start)+delay > maxElapsed {
			return resp, err
		}
		t := time.NewTimer(delay)
		select {
		case <-c.closed:
			t.Stop()
			return resp, errClientClosed
		case <-t.C:
		}
		delay = b.next(delay)
	}
}

// appErr maps the response's error string back to an error value,
// preserving the sentinel the replica branches on.
func (c *CertClient) appErr(resp certResponse) (certResponse, error) {
	if resp.Err == "" {
		return resp, nil
	}
	if resp.Err == certifier.ErrSnapshotTooOld.Error() {
		return resp, certifier.ErrSnapshotTooOld
	}
	return resp, errors.New(resp.Err)
}

// Certify implements replica.CertService. Transport failures retry:
// the certifier memoizes commit decisions per (origin, txn, snapshot),
// so a retry after a lost response returns the original decision
// instead of a spurious conflict.
func (c *CertClient) Certify(origin int, txnID, snapshot uint64, ws *writeset.WriteSet, sc dtrace.SpanContext) (certifier.Decision, error) {
	resp, err := c.callRetry(certRequest{Op: opCertify, Origin: origin, TxnID: txnID, Snapshot: snapshot, WS: ws, Trace: sc}, 0)
	return resp.Decision, err
}

// Subscribe implements replica.CertService. The returned mailbox is
// fed by a background loop that dials the stream, backfills missed
// refreshes, and reconnects with backoff when the link drops — the
// mailbox itself stays open until Unsubscribe or Close, so the
// replica's applier never exits on a transient partition.
func (c *CertClient) Subscribe(replicaID int) replica.RefreshSource {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queue != nil {
		c.queue.Close()
	}
	if c.sub != nil {
		c.sub.Close()
		c.sub = nil
	}
	c.subGen++
	q := certifier.NewMailbox()
	c.queue = q
	go c.subLoop(c.subGen, q)
	return clientSub{Mailbox: q, tracked: &c.tracked}
}

// clientSub is a remote subscription: the client's mailbox, plus
// whether the certifier sends global-commit notices. The bit is the
// client's latest subAck's, so it outlives the mailbox, which a
// recovering replica replaces before the next subAck; it is set before
// the stream reports up, so before the serve gate lets a transaction in.
type clientSub struct {
	*certifier.Mailbox
	tracked *atomic.Bool
}

func (s clientSub) GlobalTracked() bool { return s.tracked.Load() }

// subscribed reports whether gen is still the current subscription.
func (c *CertClient) subscribed(gen int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subGen == gen && c.queue != nil
}

// subLoop maintains the refresh stream for one subscription
// generation: connect, take the certifier's version at registration as
// the serve floor and its lease, backfill up to the floor, then pump
// batches until the stream breaks; repeat with backoff.
func (c *CertClient) subLoop(gen int, q *certifier.Mailbox) {
	b := c.opts.backoff
	delay := b.Min
	for {
		select {
		case <-c.closed:
			return
		default:
		}
		if !c.subscribed(gen) {
			return
		}
		if c.runStream(gen, q) {
			delay = b.Min // made progress: reset the backoff
		}
		c.streamDown()
		t := time.NewTimer(delay)
		select {
		case <-c.closed:
			t.Stop()
			return
		case <-t.C:
		}
		delay = b.next(delay)
	}
}

// runStream performs one connect-backfill-pump cycle; it reports
// whether the stream got as far as delivering refreshes (for backoff
// reset).
func (c *CertClient) runStream(gen int, q *certifier.Mailbox) bool {
	dial := c.opts.dialer(c.addr)
	conn, err := dial("tcp", c.addr)
	if err != nil {
		return false
	}
	c.mu.Lock()
	if c.subGen != gen {
		c.mu.Unlock()
		conn.Close()
		return false
	}
	c.sub = conn
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.sub == conn {
			c.sub = nil
		}
		c.mu.Unlock()
		conn.Close()
	}()

	from := c.vlocal
	if c.opts.vlocalFn != nil {
		from = c.opts.vlocalFn()
	}
	fc := newFrameConn(conn)
	if d := c.opts.to.Call; d > 0 {
		conn.SetDeadline(time.Now().Add(d))
	}
	if err := fc.send(&certHello{Kind: linkCertSub, ReplicaID: c.replicaID, VLocal: from, Shards: c.opts.shards}); err != nil {
		return false
	}
	// The ack arrives once the server has registered the subscription;
	// its version is the serve floor. Every version the certifier had
	// assigned by then may already be acknowledged to some client, so
	// strong reads must wait for it, and none of them is on the stream:
	// backfill (from, floor] before reporting the stream up. The
	// replica's reorder buffer deduplicates overlap with the stream.
	var ack subAck
	if _, err := fc.recvHello(string(linkSubAck), &ack); err != nil {
		if !errors.Is(err, io.EOF) {
			log.Printf("wire: subscribe to %s: %v", c.addr, err)
		}
		return false
	}
	conn.SetDeadline(time.Time{})
	// A lease this client cannot honour (CheckLease) is logged once and
	// leaves it no grace, and the stream is never reported up: it still
	// applies and acknowledges, but the serve gate stays shut.
	lease, leaseErr := ack.Lease, CheckLease(c.opts.to.Idle, ack.Lease)
	if leaseErr != nil {
		lease = 0
		c.refused.Do(func() { log.Printf("%v; replica %d refuses the lease and does not serve", leaseErr, c.replicaID) })
	}
	c.lease.Store(int64(lease))
	c.tracked.Store(ack.Acks)
	if ack.Acks {
		defer c.ackOn(gen, fc)()
	}
	floor := ack.Version
	if floor > c.serveFloor.Load() {
		c.serveFloor.Store(floor)
	}
	// History is paged (certifier.MaxHistoryBatch per response): loop
	// until the backfill reaches the floor or the pages run dry.
	for after := from; after < floor; {
		hist, err := c.callRetry(certRequest{Op: opHistory, After: after, Shards: c.opts.shards}, c.opts.backoff.Max)
		if err != nil {
			return false
		}
		if len(hist.History) == 0 {
			break
		}
		q.Put(hist.History...)
		after = hist.History[len(hist.History)-1].Version
	}

	c.streamUp.Store(leaseErr == nil)
	defer c.streamDown()
	for {
		if d := c.opts.to.Idle; d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		var batch refreshBatch
		if err := fc.recv(&batch); err != nil {
			return true
		}
		if !c.subscribed(gen) {
			return true
		}
		if len(batch) > 0 {
			q.Put(batch...)
		}
	}
}

// Grace is how long this replica may keep serving after its refresh
// stream drops: a quarter of the latest lease it honoured, 0 before any.
func (c *CertClient) Grace() time.Duration { return serveGrace(time.Duration(c.lease.Load())) }

func (c *CertClient) streamDown() {
	if c.streamUp.CompareAndSwap(true, false) {
		c.downSince.Store(time.Now().UnixNano())
	}
}

// StreamLive reports whether the refresh stream is connected, or has
// been down for less than grace.
func (c *CertClient) StreamLive(grace time.Duration) bool {
	if c.streamUp.Load() {
		return true
	}
	if grace <= 0 {
		return false
	}
	return time.Since(time.Unix(0, c.downSince.Load())) < grace
}

// Ready reports whether this replica may serve strong reads: its
// refresh stream is live (within grace) and its Vlocal has reached the
// serve floor recorded at the last (re)subscribe. The second condition
// closes the reconnect window: right after a partition heals the
// stream is up but the replica may still be applying the backlog, and
// serving during that window would return stale strong reads.
// Requires WithVLocal; without it only stream health is checked.
func (c *CertClient) Ready(grace time.Duration) bool {
	if !c.StreamLive(grace) {
		return false
	}
	if c.opts.vlocalFn != nil {
		return c.opts.vlocalFn() >= c.serveFloor.Load()
	}
	return true
}

// Unsubscribe implements replica.CertService: an explicit detach
// (crash), told to the certifier so eager commits stop waiting for
// this replica immediately instead of after the lease.
func (c *CertClient) Unsubscribe(replicaID int) {
	c.mu.Lock()
	c.subGen++
	if c.sub != nil {
		c.sub.Close()
		c.sub = nil
	}
	if c.queue != nil {
		c.queue.Close()
		c.queue = nil
	}
	c.mu.Unlock()
	c.streamDown()
	// Best effort: a partition here means the server-side lease cleans
	// up instead.
	_, _ = c.callRetry(certRequest{Op: opUnsubscribe, ReplicaID: replicaID}, c.opts.backoff.Max)
}

// Applied implements replica.CertService: it raises the version the
// current stream's ack writer sends, when the certifier asked for acks,
// and returns without waiting for the write. The version is kept
// either way: it opens the next stream that asks.
func (c *CertClient) Applied(replicaID int, v uint64) {
	c.ackMu.Lock()
	defer c.ackMu.Unlock()
	if v <= c.applied {
		return
	}
	c.applied = v
	select {
	case c.ackWake <- struct{}{}:
	default:
	}
}

// ackOn starts the writer of fc's acks — generation gen's stream, whose
// subAck asked for them — unless a newer generation's stream has one,
// and returns what ends it when the stream does. Applied sends only to
// the registered wake-up, under ackMu, so none sends on a closed one.
func (c *CertClient) ackOn(gen int, fc *frameConn) (off func()) {
	c.ackMu.Lock()
	defer c.ackMu.Unlock()
	if gen < c.ackGen {
		return func() {}
	}
	wake := make(chan struct{}, 1)
	c.ackGen, c.ackWake = gen, wake
	go c.writeAcks(fc, wake)
	return func() {
		c.ackMu.Lock()
		if c.ackWake == wake {
			c.ackWake = nil
		}
		c.ackMu.Unlock()
		close(wake)
	}
}

// writeAcks is the only writer on fc after the hello. It sends the
// highest applied version at once, so an ack posted while no stream was
// up is late by the reconnect, never lost, and again whenever it rises,
// until wake closes. A failed write closes the connection: the stream's
// reader then fails and resubscribes, and the next stream's writer
// re-sends. A write that blocks holds up only this goroutine.
func (c *CertClient) writeAcks(fc *frameConn, wake <-chan struct{}) {
	var sent uint64
	for {
		c.ackMu.Lock()
		v := c.applied
		c.ackMu.Unlock()
		if v > sent {
			if d := c.opts.to.Call; d > 0 {
				fc.c.SetWriteDeadline(time.Now().Add(d))
			}
			if err := fc.send(&appliedAck{Version: v}); err != nil {
				fc.c.Close()
				return
			}
			sent = v
		}
		if _, ok := <-wake; !ok {
			return
		}
	}
}

// TableVersions fetches the certifier's per-table commit versions —
// the authoritative side of the per-table replication-lag gauges a
// replica compares its own TableVersionsAt against (so /healthz can
// report the max per-table lag instead of a scalar version delta).
func (c *CertClient) TableVersions() (map[string]uint64, error) {
	var resp certResponse
	if err := c.pool.call(&certRequest{Op: opTableVers}, &resp); err != nil {
		return nil, err
	}
	return resp.TableVers, nil
}

// History implements replica.CertService: one page per call; the
// replica's recovery loop pages until empty. Pages honour the client's
// shard subscription (unserved entries arrive as skip markers).
func (c *CertClient) History(after uint64) []certifier.Refresh {
	resp, err := c.callRetry(certRequest{Op: opHistory, After: after, Shards: c.opts.shards}, c.opts.backoff.Max)
	if err != nil {
		log.Printf("wire: history(%d): %v", after, err)
		return nil
	}
	return resp.History
}

// Close tears down the client.
func (c *CertClient) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
	c.mu.Lock()
	c.subGen++
	if c.sub != nil {
		c.sub.Close()
		c.sub = nil
	}
	if c.queue != nil {
		c.queue.Close()
		c.queue = nil
	}
	c.mu.Unlock()
	c.pool.close()
}
