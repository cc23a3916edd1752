package certifier

import (
	"runtime"
	"sync"
)

// mailbox is an unbounded FIFO queue connecting the certifier to one
// replica's refresh applier. The certifier must never block on a slow
// replica (that is exactly the coupling the lazy design removes), so
// sends always succeed; the applier drains at its own pace.
type mailbox struct {
	// mu guards the queue; the certifier fans refreshes out to every
	// subscriber's mailbox while holding its own registry lock.
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

func newMailbox() *mailbox {
	return &mailbox{notify: make(chan struct{}, 1)}
}

// put enqueues one refresh. It is a no-op after close.
func (m *mailbox) put(r Refresh) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.items = append(m.items, r)
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// coalesceRounds bounds take's burst coalescing: after the first
// refresh lands, take yields to the scheduler at most this many times
// while the queue keeps growing, so a burst of concurrent committers
// collapses into one larger batch (one wire frame, one group-apply)
// without adding measurable latency when the queue is quiet.
const coalesceRounds = 2

// take removes and returns all queued refreshes, blocking until at
// least one is available or the mailbox is closed. ok is false once
// the mailbox is closed and drained. Under load it coalesces: having
// seen a non-empty queue, it briefly yields and re-drains while
// concurrent committers are still appending.
func (m *mailbox) take() (batch []Refresh, ok bool) {
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

// peekPending returns a snapshot of the queued refreshes without
// removing them — the proxy's early certification scans these.
func (m *mailbox) peekPending() []Refresh {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Refresh(nil), m.items...)
}

// len returns the number of queued refreshes.
func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// close wakes any blocked take; subsequent puts are dropped.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}
