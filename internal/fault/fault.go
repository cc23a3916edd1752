// Package fault is a seeded, deterministic network-fault injector for
// the wire layer. It wraps dialers and the connections they produce so
// every link in a deployment — gateway client, certifier subscription
// stream, replica peer pool — can be independently delayed, dropped,
// duplicated, half-closed, or partitioned, all driven by one
// *rand.Rand so a failing run replays from its seed.
//
// Faults come in two flavors:
//
//   - probabilistic per-operation faults (Config): each Read/Write on
//     an injected connection rolls against the configured
//     probabilities;
//   - scheduled partitions (Cut/Restore): a label — one logical link,
//     e.g. "cert/2" — is severed outright; existing connections are
//     torn down and new dials fail until Restore.
//
// Determinism caveat: the injector's random decisions replay exactly
// for a given seed, but the goroutine interleaving they land on is the
// scheduler's. A seed reproduces the same fault schedule and, in
// practice, the same class of failure — not a bit-identical execution.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Dialer matches the wire layer's dialer contract.
type Dialer func(network, addr string) (net.Conn, error)

// Injected fault errors. Cut and injected failures are ordinary
// network errors as far as the wire layer is concerned; these
// sentinels exist so tests can tell deliberate faults from real ones.
var (
	// ErrInjected is returned for probabilistic dial failures and
	// connection drops.
	ErrInjected = errors.New("fault: injected failure")
	// ErrCut is returned while a label is partitioned.
	ErrCut = errors.New("fault: link cut")
)

// Config sets the per-operation fault probabilities. All fields
// default to zero (no probabilistic faults); partitions via
// Cut/Restore work regardless.
type Config struct {
	// DialFailProb is the probability that a dial fails outright.
	DialFailProb float64
	// DelayProb is the probability that one Read/Write is delayed by a
	// uniform duration in (0, MaxDelay].
	DelayProb float64
	MaxDelay  time.Duration
	// DropProb is the probability that one Read/Write instead tears the
	// connection down (the peer sees a reset mid-exchange).
	DropProb float64
	// DupProb is the probability that a Write's bytes are sent twice —
	// duplicated frames, which the receiver's sequence check rejects,
	// forcing the endpoints through their reconnect paths.
	DupProb float64
	// HalfCloseProb is the probability that an operation first shuts
	// down the write side of the connection (CloseWrite), leaving a
	// half-open link.
	HalfCloseProb float64
}

// Injector owns the seeded randomness and the registry of live
// injected connections. All methods are safe for concurrent use; the
// shared rand.Rand is serialized under the injector's mutex, so the
// decision sequence is deterministic per seed even if its assignment
// to operations depends on scheduling.
type Injector struct {
	mu sync.Mutex
	// rng is the seeded decision stream.
	// guarded by mu
	rng *rand.Rand
	cfg Config
	// active toggles probabilistic faults.
	// guarded by mu
	active bool
	// cut holds the currently partitioned labels.
	// guarded by mu
	cut map[string]bool
	// conns is the registry of live injected connections.
	// guarded by mu
	conns map[*faultConn]struct{}
}

// New returns an injector with probabilistic faults active.
func New(seed int64, cfg Config) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		cfg:    cfg,
		active: true,
		cut:    make(map[string]bool),
		conns:  make(map[*faultConn]struct{}),
	}
}

// SetActive toggles probabilistic faults (delay/drop/dup/half-close
// and dial failures). Partitions from Cut remain in force regardless —
// they are explicit schedule, not noise. Deactivate around load and
// convergence phases to keep them clean.
func (in *Injector) SetActive(v bool) {
	in.mu.Lock()
	in.active = v
	in.mu.Unlock()
}

// Dialer wraps base (nil means net.Dial) so connections dialed through
// it are subject to injection under the given label.
func (in *Injector) Dialer(label string, base Dialer) Dialer {
	if base == nil {
		base = net.Dial
	}
	return func(network, addr string) (net.Conn, error) {
		in.mu.Lock()
		cut := in.cut[label]
		fail := !cut && in.active && in.cfg.DialFailProb > 0 && in.rng.Float64() < in.cfg.DialFailProb
		in.mu.Unlock()
		if cut {
			return nil, fmt.Errorf("%w: %s", ErrCut, label)
		}
		if fail {
			return nil, fmt.Errorf("%w: dial %s", ErrInjected, label)
		}
		c, err := base(network, addr)
		if err != nil {
			return nil, err
		}
		fc := &faultConn{Conn: c, in: in, label: label}
		in.mu.Lock()
		// The label may have been cut while the dial was in flight.
		if in.cut[label] {
			in.mu.Unlock()
			c.Close()
			return nil, fmt.Errorf("%w: %s", ErrCut, label)
		}
		in.conns[fc] = struct{}{}
		in.mu.Unlock()
		return fc, nil
	}
}

// Cut partitions the given labels: live connections are severed and
// subsequent dials fail until Restore.
func (in *Injector) Cut(labels ...string) {
	in.mu.Lock()
	for _, l := range labels {
		in.cut[l] = true
	}
	var victims []*faultConn
	// No rng draws here, and severing a set of connections commutes;
	// only the decision streams must replay bit-identically.
	// det:order-insensitive
	for fc := range in.conns {
		if in.cut[fc.label] {
			victims = append(victims, fc)
		}
	}
	in.mu.Unlock()
	for _, fc := range victims {
		fc.Close()
	}
}

// Restore heals the given labels.
func (in *Injector) Restore(labels ...string) {
	in.mu.Lock()
	for _, l := range labels {
		delete(in.cut, l)
	}
	in.mu.Unlock()
}

// RestoreAll heals every partition.
func (in *Injector) RestoreAll() {
	in.mu.Lock()
	in.cut = make(map[string]bool)
	in.mu.Unlock()
}

// Agitate runs a partition schedule in the calling goroutine until
// stop closes: pick a label, cut it for a random period in (0,
// maxDown], restore it, idle for a random period in (0, maxGap],
// repeat. The schedule's randomness is forked from the injector's
// seed, so it is deterministic but independent of the per-operation
// fault stream.
func (in *Injector) Agitate(stop <-chan struct{}, labels []string, maxDown, maxGap time.Duration) {
	if len(labels) == 0 || maxDown <= 0 || maxGap <= 0 {
		return
	}
	in.mu.Lock()
	rng := rand.New(rand.NewSource(in.rng.Int63()))
	in.mu.Unlock()
	pause := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-stop:
			return false
		case <-t.C:
			return true
		}
	}
	for {
		label := labels[rng.Intn(len(labels))]
		down := time.Duration(rng.Int63n(int64(maxDown))) + 1
		gap := time.Duration(rng.Int63n(int64(maxGap))) + 1
		in.Cut(label)
		ok := pause(down)
		in.Restore(label)
		if !ok || !pause(gap) {
			return
		}
	}
}

func (in *Injector) forget(fc *faultConn) {
	in.mu.Lock()
	delete(in.conns, fc)
	in.mu.Unlock()
}

type action int

const (
	actPass action = iota
	actDrop
	actDup
	actHalfClose
)

// decide rolls the fate of one I/O operation.
func (in *Injector) decide(label string, write bool) (action, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cut[label] {
		return actDrop, 0
	}
	if !in.active {
		return actPass, 0
	}
	var delay time.Duration
	if in.cfg.DelayProb > 0 && in.cfg.MaxDelay > 0 && in.rng.Float64() < in.cfg.DelayProb {
		delay = time.Duration(in.rng.Int63n(int64(in.cfg.MaxDelay))) + 1
	}
	switch {
	case in.cfg.DropProb > 0 && in.rng.Float64() < in.cfg.DropProb:
		return actDrop, delay
	case write && in.cfg.DupProb > 0 && in.rng.Float64() < in.cfg.DupProb:
		return actDup, delay
	case in.cfg.HalfCloseProb > 0 && in.rng.Float64() < in.cfg.HalfCloseProb:
		return actHalfClose, delay
	}
	return actPass, delay
}

// faultConn applies the injector's decisions to one connection.
type faultConn struct {
	net.Conn
	in    *Injector
	label string
	once  sync.Once
}

func (c *faultConn) Read(p []byte) (int, error) {
	act, delay := c.in.decide(c.label, false)
	if delay > 0 {
		time.Sleep(delay)
	}
	switch act {
	case actDrop:
		c.Close()
		return 0, fmt.Errorf("%w: read on %s", ErrInjected, c.label)
	case actHalfClose:
		halfClose(c.Conn)
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	act, delay := c.in.decide(c.label, true)
	if delay > 0 {
		time.Sleep(delay)
	}
	switch act {
	case actDrop:
		c.Close()
		return 0, fmt.Errorf("%w: write on %s", ErrInjected, c.label)
	case actDup:
		if n, err := c.Conn.Write(p); err != nil {
			return n, err
		}
		return c.Conn.Write(p)
	case actHalfClose:
		halfClose(c.Conn)
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Close() error {
	c.once.Do(func() { c.in.forget(c) })
	return c.Conn.Close()
}

func halfClose(c net.Conn) {
	if hc, ok := c.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite()
	}
}
