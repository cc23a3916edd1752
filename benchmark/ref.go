package main

import (
	"io"
	"net"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The shared host this benchmark runs on changes speed under it: for
// seconds to minutes at a time everything that goes through the kernel
// (a loopback round trip, a pipe write, a futex wake) runs up to 45 %
// slower while a pure ALU loop on the other core holds ±1 %, and a
// cluster that spends 96 % of a transaction in exactly those paths
// follows. Ten runs of the same code then spread by 0.2 of their
// median, which no bound the driver allows can hold.
//
// The reference load is the benchmark's answer: a fixed piece of work
// of the same kind, owned by the benchmark and importing nothing of
// sconrep, that runs in short slices between the windows of the timed
// run while the sessions are parked. The gated throughput is the
// cluster's rate divided by the reference's rate in the same seconds
// (times refNominal, so that it still reads as transactions per
// second), which cancels what the host did and keeps what the program
// did: a change to sconrep moves the numerator only.

// Set-up, which is a bulk load (allocation- and memory-bound user code,
// no kernel to speak of), follows the same phases of the host by up to
// +40 %, so it has a reference of its own kind: refAlloc, timed before
// and after every set-up.

// refNominal is the reference rate the normalised throughput is scaled
// to: about what refLoad does on the builder's host in a quiet phase.
const refNominal = 100_000

// refFrame is the size of the frame the reference load echoes: about
// one begin or commit request of the micro workloads.
const refFrame = 64

// refAllocNominal is what one refAlloc takes on the builder's host in a
// quiet phase; the normalised set-up time is scaled to it.
const refAllocNominal = 25 * time.Millisecond

// refShare is the part of every measurement cycle given to the
// reference load: one tenth.
const refShare = 10

// refLoad is numSessions closed-loop clients, each on its own loopback
// TCP connection to an echo goroutine: the wire pattern of the
// cluster's client link without any of its code.
type refLoad struct {
	ln    net.Listener
	conns []net.Conn
	// wg counts the accept loop and the echo goroutines.
	wg sync.WaitGroup
}

func newRefLoad() (*refLoad, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &refLoad{ln: ln}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				echo(c)
			}()
		}
	}()
	for i := 0; i < numSessions; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

func echo(c net.Conn) {
	defer c.Close()
	buf := make([]byte, refFrame)
	for {
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		if _, err := c.Write(buf); err != nil {
			return
		}
	}
}

// close returns once the accept loop and the echo goroutines have
// ended: each of those sees its connection's EOF.
func (r *refLoad) close() {
	r.ln.Close()
	for _, c := range r.conns {
		c.Close()
	}
	r.wg.Wait()
}

// run drives every connection closed-loop for d and returns the round
// trips per second of all of them together.
func (r *refLoad) run(d time.Duration) float64 {
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range r.conns {
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			buf := make([]byte, refFrame)
			var n int64
			for time.Since(start) < d {
				if _, err := c.Write(buf); err != nil {
					break
				}
				if _, err := io.ReadFull(c, buf); err != nil {
					break
				}
				n++
			}
			total.Add(n)
		}(c)
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}

// turnstile parks the sessions between two transactions while the
// reference load has the machine.
type turnstile struct {
	closed atomic.Bool
	mu     sync.Mutex
	cond   *sync.Cond
	parked int // guarded by mu
}

func newTurnstile() *turnstile {
	t := &turnstile{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// pass returns at once while the turnstile is open; a session calls it
// before every transaction.
func (t *turnstile) pass() {
	if !t.closed.Load() {
		return
	}
	t.mu.Lock()
	t.parked++
	t.cond.Broadcast()
	for t.closed.Load() {
		t.cond.Wait()
	}
	t.parked--
	t.mu.Unlock()
}

// shut closes the turnstile and returns once n sessions are parked.
func (t *turnstile) shut(n int) {
	t.mu.Lock()
	t.closed.Store(true)
	for t.parked < n {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *turnstile) open() {
	t.mu.Lock()
	t.closed.Store(false)
	t.cond.Broadcast()
	t.mu.Unlock()
}

type refRow struct {
	id, val int64
	txt     string
}

// refAllocSink keeps refAlloc's result reachable until the next call,
// so that the compiler cannot drop the work.
var refAllocSink map[int64]*refRow

// refAlloc builds and indexes 150 000 small rows, the kind of work a
// bulk load does, and returns how long that took. The collector is off
// meanwhile: whether a cycle falls into these 20 ms would decide half of
// the result.
func refAlloc() time.Duration {
	const n = 150000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	idx := make(map[int64]*refRow)
	for i := int64(0); i < n; i++ {
		k := (i * 2654435761) % 1000003
		idx[k] = &refRow{id: k, val: i, txt: strconv.FormatInt(i, 10)}
	}
	refAllocSink = idx
	return time.Since(start)
}
