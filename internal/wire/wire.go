// Package wire provides the TCP transport every cluster runs on —
// loopback in one process (cluster.New) or one node per process
// (cmd/sconrepd) — mirroring the paper's testbed topology (Figure 2):
//
//	client ⇄ gateway (load balancer) ⇄ replicas ⇄ certifier
//
// Three protocols over TCP, all in the one length-prefixed binary frame
// codec of frame.go:
//
//   - certifier link (CertServer / CertClient): replicas certify
//     writesets and fetch recovery history on request/response
//     connections, and hold one subscription connection each, on which
//     refreshes stream down and — when the certifier's subAck says so,
//     i.e. under eager mode — global-commit notices with them, and
//     cumulative apply acknowledgments travel up as one-way frames;
//   - replica link (ReplicaServer / replicaConn): the gateway begins,
//     executes, and commits transactions on a replica;
//   - client link (Gateway / Client): applications open sessions and
//     run named transactions.
//
// Every connection opens with a hello frame carrying the protocol
// version; there is no negotiation. On the last two links a request is
// an optional begin header plus an operation: starting a transaction is
// not an exchange of its own, the header rides on the transaction's
// first request. Neither is ending one that wrote nothing: a read-only
// commit is local to its replica and has no verdict, so every response
// that leaves such a transaction open already says what the commit
// would return, and the commit — like any abort — is a request flagged
// OneWay, which no hop answers. A one-way frame still takes a sequence
// number, and a receiver closes the connection on one out of place.
//
// Requests use small per-destination connection pools (one in-flight
// call per connection, answered or not); refresh streaming uses one
// dedicated connection per replica. Row values are []any restricted to
// int64/float64/string/bool/nil, laid out by internal/writeset.
package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// connPool is a lazily grown pool of connections to one address. Each
// call takes a connection for a full request/response exchange, or for
// the one frame of a request that is not answered.
type connPool struct {
	addr string
	dial Dialer
	to   Timeouts
	// mu guards the free list; CertClient tears pools down while
	// holding its subscription lock.
	// locks after CertClient.mu
	mu sync.Mutex
	// free is the idle-connection list.
	// guarded by mu
	free []*rpcConn
	// hello builds the first frame of every new connection; invoked per
	// connection because a hello can carry live state (the certifier
	// client's Vlocal).
	hello func() outFrame
}

type rpcConn struct {
	*frameConn
	// pooled marks connections reused from the free list: a send
	// failure on one usually means the server idled it out, so the call
	// is retried once on a fresh dial.
	pooled bool
	// seq numbers the exchanges on this connection. A response whose
	// echoed sequence number does not match the request's means the
	// byte stream desynchronized (e.g. a duplicated frame); the
	// connection is unusable and is torn down.
	seq uint64
	// idleSince is when the connection went back to the free list.
	idleSince time.Time
}

// request / response are the frame types of a call: each carries a
// per-connection sequence number.
type request interface {
	outFrame
	setSeq(uint64)
}

type response interface {
	inFrame
	seq() uint64
}

func newConnPool(addr string, hello func() outFrame, dial Dialer, to Timeouts) *connPool {
	if dial == nil {
		dial = net.Dial
	}
	return &connPool{addr: addr, hello: hello, dial: dial, to: to}
}

// get returns an idle connection or dials one. The server reaps at
// Timeouts.Idle, and a request written to a reaped connection fails only
// at the response read, which is never retried: one idle for more than
// half of that is closed instead of used.
func (p *connPool) get() (*rpcConn, error) {
	p.mu.Lock()
	for n := len(p.free); n > 0; n = len(p.free) {
		rc := p.free[n-1]
		p.free = p.free[:n-1]
		if p.to.Idle > 0 && time.Since(rc.idleSince) > p.to.Idle/2 {
			rc.c.Close()
			continue
		}
		p.mu.Unlock()
		rc.pooled = true
		return rc, nil
	}
	p.mu.Unlock()
	c, err := p.dial("tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", p.addr, err)
	}
	rc := &rpcConn{frameConn: newFrameConn(c)}
	if d := p.to.Call; d > 0 {
		c.SetWriteDeadline(time.Now().Add(d))
	}
	if err := rc.send(p.hello()); err != nil {
		c.Close()
		return nil, fmt.Errorf("wire: hello to %s: %w", p.addr, err)
	}
	return rc, nil
}

func (p *connPool) put(rc *rpcConn) {
	if p.to.Idle > 0 {
		rc.idleSince = time.Now()
	}
	p.mu.Lock()
	p.free = append(p.free, rc)
	p.mu.Unlock()
}

// call performs one request/response exchange, or with a nil resp puts
// a one-way request on the wire, under the Timeouts.Call deadline (zero
// means none); on any error the connection is discarded. If the request
// fails to send on a pooled connection — the server likely reaped it
// while idle — the exchange is retried once on a fresh connection; a
// send that reached the wire is never retried here, so retry-safety
// decisions stay with the callers.
func (p *connPool) call(req request, resp response) error {
	d := p.to.Call
	for {
		rc, err := p.get()
		if err != nil {
			return err
		}
		rc.seq++
		req.setSeq(rc.seq)
		if d > 0 {
			rc.c.SetWriteDeadline(time.Now().Add(d))
		}
		if err := rc.send(req); err != nil {
			rc.c.Close()
			if rc.pooled && !errors.Is(err, errEncode) {
				continue
			}
			return fmt.Errorf("wire: send to %s: %w", p.addr, err)
		}
		if resp != nil {
			if d > 0 {
				rc.c.SetReadDeadline(time.Now().Add(d))
			}
			if err := rc.recv(resp); err != nil {
				rc.c.Close()
				return fmt.Errorf("wire: recv from %s: %w", p.addr, err)
			}
			if resp.seq() != rc.seq {
				rc.c.Close()
				return fmt.Errorf("wire: response out of sequence from %s (got %d, want %d)", p.addr, resp.seq(), rc.seq)
			}
		}
		if d > 0 {
			rc.c.SetDeadline(time.Time{})
		}
		p.put(rc)
		return nil
	}
}

// close drops all pooled connections.
func (p *connPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rc := range p.free {
		rc.c.Close()
	}
	p.free = nil
}
