package wire

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// ErrUnavailable marks a replica that is temporarily not serving —
// its refresh stream is down or it is catching up after a partition.
// The gateway reroutes; clients may retry.
var ErrUnavailable = errors.New("wire: replica unavailable")

// Dialer opens one connection; the fault injector and tests substitute
// their own. Nil means net.Dial.
type Dialer func(network, addr string) (net.Conn, error)

// Timeouts bounds wire I/O. Zero fields mean no deadline (the
// pre-hardening behavior).
type Timeouts struct {
	// Call bounds one request/response exchange: the write deadline for
	// the request and the read deadline for the response.
	Call time.Duration
	// Idle is a server-side read deadline between requests and the
	// subscription stream's per-batch receive deadline. Idle
	// connections beyond it are torn down; pooled clients re-dial
	// transparently and the subscription reconnects, so Idle doubles as
	// the stream's partition detector.
	Idle time.Duration
}

// Backoff is a bounded exponential backoff schedule for reconnects and
// retried calls.
type Backoff struct {
	Min time.Duration
	Max time.Duration
}

func (b Backoff) orDefault() Backoff {
	if b.Min <= 0 {
		b.Min = 20 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = time.Second
	}
	return b
}

// next doubles the delay up to Max.
func (b Backoff) next(d time.Duration) time.Duration {
	d *= 2
	if d > b.Max {
		d = b.Max
	}
	return d
}

// options collects the knobs shared across wire constructors.
type options struct {
	dialFor  func(addr string) Dialer
	to       Timeouts
	backoff  Backoff
	subLease time.Duration
	cert     *CertClient
	vlocalFn func() uint64
	shards   []int
}

// Option configures a wire endpoint.
type Option func(*options)

// WithDialer uses d for every outbound connection.
func WithDialer(d Dialer) Option {
	return func(o *options) { o.dialFor = func(string) Dialer { return d } }
}

// WithDialerFunc selects a dialer per destination address — the hook
// the fault injector uses to give each link its own label.
func WithDialerFunc(f func(addr string) Dialer) Option {
	return func(o *options) { o.dialFor = f }
}

// WithTimeouts bounds the endpoint's I/O.
func WithTimeouts(t Timeouts) Option {
	return func(o *options) { o.to = t }
}

// WithBackoff sets the reconnect/retry schedule.
func WithBackoff(b Backoff) Option {
	return func(o *options) { o.backoff = b }
}

// WithSubLease sets how long the certifier server keeps a replica
// subscribed after its refresh stream drops (CertServer). Within the
// lease a reconnecting replica resumes its subscription — and, under
// eager mode, commits keep waiting for it, which is what prevents a
// briefly partitioned replica from being silently excluded from the
// global commit. Past the lease the replica is unsubscribed as
// crashed. Every subAck carries the lease, and the replica derives its
// serve grace from it (see CheckLease). Zero means the default (10s).
func WithSubLease(d time.Duration) Option {
	return func(o *options) { o.subLease = d }
}

// WithCertClient gives a replica server its replica's certifier client.
// Requests that carry a begin header fail with ErrUnavailable while the
// client is not Serving: a replica that has lost its refresh stream (or
// is catching up after one) must not serve possibly stale strong reads.
// Status answers carry the client's shards and shard map.
func WithCertClient(cc *CertClient) Option {
	return func(o *options) { o.cert = cc }
}

// WithVLocal gives the certifier client a live view of the replica's
// version: each (re)subscription starts from it, so the certifier
// backfills exactly the refreshes missed.
func WithVLocal(f func() uint64) Option {
	return func(o *options) { o.vlocalFn = f }
}

// WithShards restricts a certifier client's refresh subscription (and
// its reconnect backfills) to the given certification shards. Versions
// certified entirely on other shards arrive as skip markers — the
// replica advances its version counter without row data — so a replica
// serving a slice of the table space pays refresh bandwidth only for
// that slice. Nil keeps the full stream.
func WithShards(shards []int) Option {
	return func(o *options) { o.shards = shards }
}

const defaultSubLease = 10 * time.Second

// serveGrace is how long a replica keeps serving after its refresh
// stream drops, under a certifier lease of lease.
func serveGrace(lease time.Duration) time.Duration { return lease / 4 }

// CheckLease is the lease rule. The certifier stops waiting for a
// replica whose stream dropped once the lease runs out, so the replica
// must have stopped serving strong reads by then. It notices a silent
// stream at most idle after the last frame, and serves for a quarter of
// the lease after that: idle + lease/4 must stay below lease. A zero
// idle runs no detector and is not checked; a zero lease is the
// default. The error names both values.
func CheckLease(idle, lease time.Duration) error {
	if lease == 0 {
		lease = defaultSubLease
	}
	if idle > 0 && idle+serveGrace(lease) >= lease {
		return fmt.Errorf("wire: stream idle %s plus serve grace %s (a quarter of the lease) is not below the subscription lease %s",
			idle, serveGrace(lease), lease)
	}
	return nil
}

func buildOptions(opts []Option) options {
	var o options
	for _, op := range opts {
		op(&o)
	}
	o.backoff = o.backoff.orDefault()
	if o.subLease == 0 {
		o.subLease = defaultSubLease
	}
	return o
}

// dialer resolves the dialer for addr (never nil).
func (o *options) dialer(addr string) Dialer {
	if o.dialFor != nil {
		if d := o.dialFor(addr); d != nil {
			return d
		}
	}
	return net.Dial
}
