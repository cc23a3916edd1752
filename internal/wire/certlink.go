package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
	"sconrep/internal/writeset"
)

// Certifier-link protocol. Every connection starts with certHello;
// Kind selects streaming (linkCertSub) or request/response
// (linkCertReq).
type certHello struct {
	Kind      link
	ReplicaID int
	// VLocal is the replica's live version: a subscription's backfill
	// starts above it, and a decision-free certifier adopts it (StartAt).
	VLocal uint64
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
// subscription is registered, before any refresh frame: Version is the
// subscription's floor, the certifier's version at registration. The
// stream carries the backfill — every retained version above the
// hello's VLocal up to the floor — and then every later version.
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
	// Shards is the certifier's table→shard map. An ack that carries
	// nothing else refuses a subscription to a shard outside it.
	Shards *shard.Map
	// Trimmed, when not 0, refuses a subscription whose VLocal is below
	// the certifier's trim floor: the certifier retains only the
	// versions above Trimmed (certifier.TrimmedError).
	Trimmed uint64
}

func (a *subAck) appendTo(buf []byte) ([]byte, error) {
	buf = append(appendHello(buf, linkSubAck), flagIf(a.Acks, flagAcks))
	buf = binary.AppendUvarint(buf, a.Version)
	buf = binary.AppendVarint(buf, int64(a.Lease))
	return binary.AppendUvarint(appendShardMap(buf, a.Shards), a.Trimmed), nil
}

func (a *subAck) parse(d *writeset.Decoder) {
	a.Acks = readFlags(d, flagAcks) != 0
	a.Version = d.Uvarint()
	a.Lease = time.Duration(d.Varint())
	a.Shards = readShardMap(d)
	a.Trimmed = d.Uvarint()
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
	Op  op // opCertify, opTableVers, opUnsubscribe

	// certify
	Origin   int
	TxnID    uint64
	Snapshot uint64
	WS       *writeset.WriteSet
	// Trace is the committing span's context; zero when untraced.
	Trace dtrace.SpanContext

	// unsubscribe
	ReplicaID int
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
	return binary.AppendVarint(buf, int64(r.ReplicaID)), nil
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
}

// certResponse is the response envelope.
type certResponse struct {
	Seq      uint64
	Err      string
	Decision certifier.Decision
	// TableVers answers opTableVers: the latest commit version that
	// wrote each table.
	TableVers map[string]uint64
}

func (r *certResponse) appendTo(buf []byte) ([]byte, error) {
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = writeset.AppendString(append(buf, flagIf(r.Decision.Commit, flagCommit)), r.Err)
	buf = binary.AppendUvarint(buf, r.Decision.Version)
	return appendVersions(buf, r.TableVers), nil
}

func (r *certResponse) parse(d *writeset.Decoder) {
	r.Seq = d.Uvarint()
	r.Decision.Commit = readFlags(d, flagCommit) != 0
	r.Err = d.Str()
	r.Decision.Version = d.Uvarint()
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

// coalesceRounds bounds the stream writer's burst coalescing: having
// taken a batch, it yields to the scheduler at most this many times
// while refreshes keep arriving, so a burst of concurrent committers
// collapses into one larger frame without adding measurable latency
// when the queue is quiet.
const coalesceRounds = 2

// streamRefreshes serves one subscription connection in both
// directions. The subscription starts at the hello's VLocal, so its
// backfill goes down the stream ahead of the live refreshes. A writer
// goroutine pumps the subscription to the replica, one frame per batch
// it takes — never per refresh: it coalesces bursts, so a backlogged
// replica receives a few large frames instead of a frame per committed
// transaction — split at certifier.MaxHistoryBatch refreshes, so a deep
// backfill never nears maxFrame. This goroutine reads the replica's
// appliedAck frames. Either side's failure closes the connection, which
// ends the other.
func (s *CertServer) streamRefreshes(fc *frameConn, hello certHello) {
	c, replicaID := fc.c, hello.ReplicaID
	if d := s.opts.to.Call; d > 0 {
		c.SetWriteDeadline(time.Now().Add(d))
	}
	// A shard this certifier does not have: refuse, so the replica's
	// gate never opens, rather than serve it a stream of skip markers.
	smap := s.cert.ShardMap()
	if id, ok := smap.Lacks(hello.Shards); ok {
		log.Printf("wire: certifier: replica %d subscribes to shard %d, certifier has %d shard(s); closing its stream", replicaID, id, smap.N())
		fc.send(&subAck{Shards: smap})
		return
	}
	sub, err := s.cert.Subscribe(replicaID, hello.Shards, hello.VLocal)
	var trimmed *certifier.TrimmedError
	if errors.As(err, &trimmed) {
		log.Printf("wire: certifier: replica %d: %v; closing its stream", replicaID, err)
		fc.send(&subAck{Shards: smap, Trimmed: trimmed.Floor})
		return
	}
	// The generation moves only for a registered subscription: a refused
	// one must not keep the lease of the one it failed to replace from
	// expiring. One that expires meanwhile cancels nothing newer
	// (Subscription.Cancel).
	s.mu.Lock()
	s.streamGen[replicaID]++
	gen := s.streamGen[replicaID]
	s.mu.Unlock()
	defer s.releaseStream(replicaID, gen, sub)
	// A replica that is asked for no acks never writes again, and one
	// that is writes only when it applies: reads have no deadline, and
	// return when the peer closes or half-closes.
	c.SetReadDeadline(time.Time{})
	// The ack is written only now that the subscription is registered,
	// and before the writer starts: it carries the floor, and the
	// mailbox already holds the backfill up to it.
	floor, _ := sub.Floor()
	if err := fc.send(&subAck{Version: floor, Acks: sub.GlobalTracked(), Lease: s.opts.subLease, Shards: smap}); err != nil {
		return
	}
	go func() {
		defer c.Close()
		for {
			batch, ok := sub.Take()
			if !ok {
				return
			}
			for round := 0; round < coalesceRounds; round++ {
				runtime.Gosched()
				if sub.QueueLen() == 0 {
					break // the burst has drained; ship what we have
				}
				more, _ := sub.Take()
				batch = append(batch, more...)
			}
			for len(batch) > 0 {
				n := min(len(batch), certifier.MaxHistoryBatch)
				if d := s.opts.to.Call; d > 0 {
					c.SetWriteDeadline(time.Now().Add(d))
				}
				if err := fc.send(refreshBatch(batch[:n])); err != nil {
					return
				}
				batch = batch[n:]
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
// certifier. Its refresh subscription survives the certifier link: the
// local queue stays open across reconnects, each reconnect subscribes
// from the replica's live Vlocal (WithVLocal; the dial-time version
// without it), so the certifier sends the refreshes missed down the
// stream first, and request calls retry transient transport failures
// with bounded exponential backoff.
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
	// serveFloor is the floor of the latest subAck: everything the
	// certifier may already have acknowledged to clients. A replica must
	// not serve strong reads until Vlocal reaches it (see Ready).
	serveFloor atomic.Uint64
	// lease is the latest subAck's lease in nanoseconds, 0 before the
	// first and after one this client refused (see Grace).
	lease atomic.Int64
	// refused logs the first lease this client cannot honour.
	refused sync.Once
	// smap is the latest subAck's shard map, nil before the first.
	smap atomic.Pointer[shard.Map]
	// moves counts what can move the certifier's table versions as far
	// as this client sees: each delivery of refreshes and each of its own
	// certifications, which its stream does not carry. tableVers is the
	// last reading of them, nil before the first (see
	// RecentTableVersions).
	moves     atomic.Uint64
	tableVers atomic.Pointer[tableVersions]

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
	c.moves.Add(1)
	return resp.Decision, err
}

// Subscribe implements replica.CertService. The returned mailbox is
// fed by a background loop that dials the stream and reconnects with
// backoff when the link drops, each time from the replica's Vlocal —
// the mailbox itself stays open until Unsubscribe or Close, so the
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
	ans := &subAnswer{done: make(chan struct{})}
	go c.subLoop(c.subGen, q, ans)
	return clientSub{Mailbox: q, tracked: &c.tracked, answer: ans}
}

// clientSub is a remote subscription: the client's mailbox, whether the
// certifier sends global-commit notices, and its first answer. The bit
// is the client's latest subAck's, so it outlives the mailbox, which a
// recovering replica replaces before the next subAck; it is set before
// the stream reports up, so before the serve gate lets a transaction in.
type clientSub struct {
	*certifier.Mailbox
	tracked *atomic.Bool
	answer  *subAnswer
}

func (s clientSub) GlobalTracked() bool { return s.tracked.Load() }

// Floor waits for the certifier's first answer to this subscription
// and returns its floor, or the refusal; a subscription that ends
// unanswered (Unsubscribe, Close) returns an error.
func (s clientSub) Floor() (uint64, error) {
	<-s.answer.done
	return s.answer.floor, s.answer.err
}

// subAnswer is the certifier's first answer to one subscription.
type subAnswer struct {
	once  sync.Once
	done  chan struct{}
	floor uint64
	err   error
}

// set records the answer; only the first one counts.
func (a *subAnswer) set(floor uint64, err error) {
	a.once.Do(func() {
		a.floor, a.err = floor, err
		close(a.done)
	})
}

var errSubEnded = errors.New("wire: subscription ended before the certifier answered it")

// subscribed reports whether gen is still the current subscription.
func (c *CertClient) subscribed(gen int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subGen == gen && c.queue != nil
}

// subLoop maintains the refresh stream for one subscription
// generation: connect, take the subscription's floor and lease from the
// subAck, then pump batches — the backfill first — until the stream
// breaks; repeat with backoff. A refusal is for good: a certifier's
// shard map is fixed for its life, and its trim floor only rises. The
// loop ends there and the replica stays unready until it is restarted
// with shards the certifier has, or from state the certifier can bring
// up to date.
func (c *CertClient) subLoop(gen int, q *certifier.Mailbox, ans *subAnswer) {
	defer ans.set(0, errSubEnded)
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
		switch c.runStream(gen, q, ans) {
		case streamRefused:
			return
		case streamDelivered:
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

// streamEnd is how one runStream cycle ended.
type streamEnd int

const (
	streamFailed    streamEnd = iota // before delivering refreshes
	streamDelivered                  // after delivering refreshes: the backoff resets
	streamRefused                    // the certifier refused the subscription for good
)

// runStream performs one subscribe-and-pump cycle.
func (c *CertClient) runStream(gen int, q *certifier.Mailbox, ans *subAnswer) streamEnd {
	dial := c.opts.dialer(c.addr)
	conn, err := dial("tcp", c.addr)
	if err != nil {
		return streamFailed
	}
	c.mu.Lock()
	if c.subGen != gen {
		c.mu.Unlock()
		conn.Close()
		return streamFailed
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
		return streamFailed
	}
	// The ack arrives once the server has registered the subscription;
	// its version is the serve floor. Every version the certifier had
	// assigned by then may already be acknowledged to some client, so
	// strong reads must wait for it (Ready). The stream carries those
	// above from first, then the live refreshes; the replica's reorder
	// buffer drops what it already has.
	var ack subAck
	if _, err := fc.recvHello(string(linkSubAck), &ack); err != nil {
		if !errors.Is(err, io.EOF) {
			log.Printf("wire: subscribe to %s: %v", c.addr, err)
		}
		return streamFailed
	}
	if id, ok := ack.Shards.Lacks(c.opts.shards); ok {
		err := fmt.Errorf("wire: certifier %s has %d shard(s) and refuses replica %d, which serves shard %d", c.addr, ack.Shards.N(), c.replicaID, id)
		log.Print(err)
		ans.set(0, err)
		return streamRefused
	}
	if ack.Trimmed != 0 {
		// No grace either: a replica that cannot catch up must not serve
		// on the strength of the stream it had before.
		c.lease.Store(0)
		err := &certifier.TrimmedError{After: from, Floor: ack.Trimmed}
		log.Printf("wire: certifier %s refuses replica %d: %v", c.addr, c.replicaID, err)
		ans.set(0, err)
		return streamRefused
	}
	c.smap.Store(ack.Shards)
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
	if ack.Version > c.serveFloor.Load() {
		c.serveFloor.Store(ack.Version)
	}
	// Up before answered: a caller that waited for the answer (Floor)
	// finds the stream up.
	c.streamUp.Store(leaseErr == nil)
	ans.set(ack.Version, nil)
	defer c.streamDown()
	for {
		if d := c.opts.to.Idle; d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		var batch refreshBatch
		if err := fc.recv(&batch); err != nil {
			return streamDelivered
		}
		if !c.subscribed(gen) {
			return streamDelivered
		}
		if len(batch) > 0 {
			q.Put(batch...)
			c.moves.Add(1)
		}
	}
}

// Grace is how long this replica may keep serving after its refresh
// stream drops: a quarter of the latest lease it honoured, 0 before any.
func (c *CertClient) Grace() time.Duration { return serveGrace(time.Duration(c.lease.Load())) }

// Serving is the replica server's gate: Ready within Grace.
func (c *CertClient) Serving() bool { return c.Ready(c.Grace()) }

// ShardMap is the latest subAck's shard map, nil before the first.
func (c *CertClient) ShardMap() *shard.Map { return c.smap.Load() }

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
// floor of the latest subAck. The second condition closes the reconnect
// window: right after a partition heals the stream is up but the
// replica may still be applying its backfill, and serving during that
// window would return stale strong reads. Requires WithVLocal; without
// it only stream health is checked.
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
// this replica immediately instead of after the lease. It ends the
// grace too: a replica that recovers serves again only from its next
// subAck, once it has reached that subscription's floor.
func (c *CertClient) Unsubscribe(replicaID int) {
	c.lease.Store(0)
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
// the authoritative side of the per-table replication lag a replica
// compares its own TableVersionsAt against (so /healthz can report the
// max per-table lag instead of a scalar version delta). Every call is a
// round trip, so a stream that is up but delivers nothing still shows
// as growing lag; the reading is kept for RecentTableVersions. The map
// is shared; callers must not modify it.
func (c *CertClient) TableVersions() (map[string]uint64, error) {
	moves := c.moves.Load()
	var resp certResponse
	if err := c.pool.call(&certRequest{Op: opTableVers}, &resp); err != nil {
		return nil, err
	}
	c.tableVers.Store(&tableVersions{resp.TableVers, moves})
	return resp.TableVers, nil
}

// RecentTableVersions is TableVersions without the round trip while
// the refresh stream is up and nothing has moved since the last reading
// was requested: a commit after the request is this client's own
// certification, or reaches it on the stream (a resubscription's
// backfill included), so re-reading an idle replica's lag costs nothing. It
// trusts the stream to deliver; use TableVersions where a silent stream
// must show.
func (c *CertClient) RecentTableVersions() (map[string]uint64, error) {
	if last := c.tableVers.Load(); last != nil && last.moves == c.moves.Load() && c.streamUp.Load() {
		return last.vers, nil
	}
	return c.TableVersions()
}

// tableVersions is a reading of the certifier's table versions, and
// CertClient.moves when it was requested.
type tableVersions struct {
	vers  map[string]uint64
	moves uint64
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
