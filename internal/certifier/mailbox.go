package certifier

import (
	"runtime"
	"sync"
)

// Mailbox is the one refresh queue between the certifier and a replica's
// applier, an unbounded FIFO used on both ends of the link: in the
// certifier it is a subscriber's queue, filled by the refresh fan-out
// and drained by the stream writer (or, in process, by the replica); in
// a remote replica it is the wire client's queue, filled from the
// stream and drained by the applier. The certifier must never block on
// a slow replica (that is exactly the coupling the lazy design
// removes), so puts always succeed; the applier drains at its own pace.
type Mailbox struct {
	// mu guards the queue; the certifier fans refreshes out to every
	// subscriber's mailbox while holding its own registry lock, and the
	// wire client closes its mailbox under its subscription lock.
	// locks after Certifier.mu
	mu sync.Mutex
	// items is the queued refresh backlog.
	// guarded by mu
	items  []Refresh
	notify chan struct{} // 1-buffered wakeup
	// closed drops further puts.
	// guarded by mu
	closed bool
}

// NewMailbox returns an empty, open mailbox.
func NewMailbox() *Mailbox {
	return &Mailbox{notify: make(chan struct{}, 1)}
}

// Put enqueues refreshes in order. It is a no-op after Close.
func (m *Mailbox) Put(rs ...Refresh) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.items = append(m.items, rs...)
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// coalesceRounds bounds Take's burst coalescing: after the first
// refresh lands, Take yields to the scheduler at most this many times
// while the queue keeps growing, so a burst of concurrent committers
// collapses into one larger batch (one wire frame, one group-apply)
// without adding measurable latency when the queue is quiet.
const coalesceRounds = 2

// Take removes and returns all queued refreshes, blocking until at
// least one is available or the mailbox is closed. ok is false once
// the mailbox is closed and drained. Under load it coalesces: having
// seen a non-empty queue, it briefly yields and re-drains while
// concurrent committers are still appending.
func (m *Mailbox) Take() (batch []Refresh, ok bool) {
	for {
		m.mu.Lock()
		if len(m.items) > 0 {
			for round := 0; round < coalesceRounds && !m.closed; round++ {
				n := len(m.items)
				m.mu.Unlock()
				runtime.Gosched()
				m.mu.Lock()
				if len(m.items) == n {
					break // the burst has drained; ship what we have
				}
			}
			batch = m.items
			m.items = nil
			m.mu.Unlock()
			return batch, true
		}
		if m.closed {
			m.mu.Unlock()
			return nil, false
		}
		m.mu.Unlock()
		<-m.notify
	}
}

// Pending returns a snapshot of the queued refreshes without removing
// them — the proxy's early certification scans these.
func (m *Mailbox) Pending() []Refresh {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Refresh(nil), m.items...)
}

// QueueLen returns the number of queued refreshes.
func (m *Mailbox) QueueLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// Close wakes any blocked Take; subsequent puts are dropped.
func (m *Mailbox) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}
