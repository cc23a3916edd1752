package wire

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/obs"
)

// server is the listener half CertServer, ReplicaServer and Gateway
// share: the one listen site, the set of live connections, the accept
// loop, the prologue and teardown of every connection, and the request
// counter. What a connection carries after its hello is the embedding
// server's.
type server struct {
	// link names the server — "certifier", "replica", "gateway" — in its
	// metrics label and in the log line of a refused hello.
	link string
	ln   net.Listener
	opts options
	// obsReqs is set once by EnableObs, before traffic; nil-safe until
	// then.
	obsReqs atomic.Pointer[obs.CounterVec]

	// mu is a leaf: it is held for one map operation, never across I/O
	// or while taking another lock.
	mu sync.Mutex
	// closed refuses new connections.
	// guarded by mu
	closed bool
	// conns is the set of live connections.
	// guarded by mu
	conns map[net.Conn]struct{}
}

// listen binds addr — the only net.Listen in the package.
func listen(link, addr string, opts []Option) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	return &server{link: link, ln: ln, opts: buildOptions(opts), conns: make(map[net.Conn]struct{})}, nil
}

// EnableObs counts served requests per operation under
// sconrep_wire_requests_total{link=...}; one-way frames count like
// answered ones. Call before traffic.
func (s *server) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obsReqs.Store(reg.CounterVec("sconrep_wire_requests_total",
		"Wire requests served, by link and operation.", "op", "link", s.link))
}

// Addr returns the bound address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and severs every live connection.
func (s *server) Close() error {
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

// acceptLoop gives every accepted connection its own goroutine running
// serve, tracked from before serve starts until after it returns; a
// connection that arrives after Close is dropped unserved.
func (s *server) acceptLoop(serve func(*frameConn)) {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			if !s.track(c) {
				return
			}
			defer s.untrack(c)
			serve(newFrameConn(c))
		}()
	}
}

// track registers a live connection; it reports false when the server
// is already closed.
func (s *server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// hello reads a connection's first frame, which must open one of the
// accept links, into f. The read runs under Timeouts.Idle, which stays
// armed on return: a peer that connects and never speaks is reaped like
// an idle one. A refused hello is logged and reported as false; the
// caller closes the connection by returning.
func (s *server) hello(fc *frameConn, accept string, f inFrame) (link, bool) {
	if d := s.opts.to.Idle; d > 0 {
		fc.c.SetReadDeadline(time.Now().Add(d))
	}
	kind, err := fc.recvHello(accept, f)
	if err != nil {
		log.Printf("wire: %s: rejecting %s: %v", s.link, fc.c.RemoteAddr(), err)
		return 0, false
	}
	return kind, true
}
