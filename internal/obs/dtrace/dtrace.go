// Package dtrace is a zero-dependency distributed-tracing layer in the
// Dapper mold: 16-byte trace ids and 8-byte span ids propagate across
// the wire as an optional frame-header extension, each process records
// its finished spans into a bounded ring (Collector), and a stitcher
// (BuildForest) reassembles the per-process fragments into the causal
// tree of one transaction: client session → lb route → replica
// execute → certifier certify → refresh apply on every replica.
//
// Everything is pay-for-what-you-use: all methods are nil-safe, so an
// instrumented hot path costs exactly one nil check when tracing is
// off — no allocation, no locks, no clock reads. Span ids come from a
// seeded splitmix64 counter (never from math/rand or the wall clock),
// and the clock itself is injectable (WithClock) so seeded packages
// stay deterministic under the sconrep-vet analyzer.
package dtrace

import (
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end transaction trace.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalText implements encoding.TextMarshaler (hex, for JSON).
func (t TraceID) MarshalText() ([]byte, error) {
	b := make([]byte, hex.EncodedLen(len(t)))
	hex.Encode(b, t[:])
	return b, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *TraceID) UnmarshalText(b []byte) error {
	id, err := ParseTraceID(string(b))
	if err != nil {
		return err
	}
	*t = id
	return nil
}

// MarshalText implements encoding.TextMarshaler (hex, for JSON).
func (s SpanID) MarshalText() ([]byte, error) {
	b := make([]byte, hex.EncodedLen(len(s)))
	hex.Encode(b, s[:])
	return b, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) != 2*len(s) {
		return fmt.Errorf("dtrace: span id must be %d hex digits, got %q", 2*len(s), b)
	}
	_, err := hex.Decode(s[:], b)
	return err
}

// ParseTraceID parses 32 hex digits into a TraceID.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 2*len(t) {
		return t, fmt.Errorf("dtrace: trace id must be %d hex digits, got %q", 2*len(t), s)
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("dtrace: bad trace id %q: %w", s, err)
	}
	return t, nil
}

// SpanContext is the wire-propagated fragment of a span: just enough
// for a downstream process to parent its own spans under ours. The
// zero value is "no context": a frame carrying it omits the 24 bytes
// (one flag bit says which) and decodes back to it.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Span is one finished span as recorded by a Collector.
type Span struct {
	Trace  TraceID           `json:"trace"`
	ID     SpanID            `json:"id"`
	Parent SpanID            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Node   string            `json:"node"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	// Links reference spans in other traces that causally fed this one
	// — a refresh batch links every commit it coalesced.
	Links []SpanContext `json:"links,omitempty"`
}

// Duration is the span's wall time under its recording clock.
func (s *Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// splitmix64 is the id mixer: a full-period permutation of uint64, so
// distinct counter values never collide.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Tracer mints spans for one named node (process/component). A nil
// *Tracer is valid and inert: StartRoot/StartSpan return a nil span
// whose methods are all no-ops.
type Tracer struct {
	node string
	coll *Collector
	now  func() time.Time
	// ctr feeds splitmix64; seeded per tracer so id streams are
	// deterministic given a fixed seed and call order.
	ctr atomic.Uint64
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithClock injects the time source. Seeded packages must pass their
// deterministic clock here; the sconrep-vet determinism analyzer
// rejects dtrace.New calls without WithClock inside seeded packages.
func WithClock(now func() time.Time) Option {
	return func(t *Tracer) { t.now = now }
}

// WithSeed sets the id-stream seed (default: a hash of the node name,
// so two nodes never mint the same ids even with identical call
// counts).
func WithSeed(seed uint64) Option {
	return func(t *Tracer) { t.ctr.Store(seed) }
}

// New returns a tracer recording into coll. The default clock is
// time.Now; the default id seed is derived from the node name.
func New(node string, coll *Collector, opts ...Option) *Tracer {
	t := &Tracer{node: node, coll: coll, now: time.Now}
	var h uint64 = 14695981039346656037 // FNV-1a over the node name
	for i := 0; i < len(node); i++ {
		h = (h ^ uint64(node[i])) * 1099511628211
	}
	t.ctr.Store(h)
	for _, o := range opts {
		o(t)
	}
	return t
}

func (t *Tracer) nextID() uint64 {
	// Mixing the post-increment counter keeps ids unique per tracer and
	// non-sequential on the wire.
	return splitmix64(t.ctr.Add(1))
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	a, b := t.nextID(), t.nextID()
	for i := 0; i < 8; i++ {
		id[i] = byte(a >> (8 * i))
		id[8+i] = byte(b >> (8 * i))
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	v := t.nextID()
	for i := 0; i < 8; i++ {
		id[i] = byte(v >> (8 * i))
	}
	return id
}

// ActiveSpan is an in-flight span. A nil *ActiveSpan is valid: every
// method is a no-op and Context returns the zero context, so callers
// thread spans unconditionally.
type ActiveSpan struct {
	tr  *Tracer
	mu  sync.Mutex
	rec Span
	// ended guards against double End (e.g. abort paths that also run
	// the deferred finalizer).
	ended bool
}

// StartRoot opens a span with a fresh trace id.
func (t *Tracer) StartRoot(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{tr: t, rec: Span{
		Trace: t.newTraceID(),
		ID:    t.newSpanID(),
		Name:  name,
		Node:  t.node,
		Start: t.now(),
	}}
}

// StartSpan opens a span under parent. An invalid parent yields a new
// root (local traces still assemble when an old peer dropped the
// context).
func (t *Tracer) StartSpan(name string, parent SpanContext) *ActiveSpan {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.StartRoot(name)
	}
	return &ActiveSpan{tr: t, rec: Span{
		Trace:  parent.Trace,
		ID:     t.newSpanID(),
		Parent: parent.Span,
		Name:   name,
		Node:   t.node,
		Start:  t.now(),
	}}
}

// Context returns the span's wire context (zero on nil).
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.rec.Trace, Span: s.rec.ID}
}

// SetAttr attaches one key/value annotation.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]string, 4)
	}
	s.rec.Attrs[key] = value
	s.mu.Unlock()
}

// Link records a causal reference to a span in another trace.
func (s *ActiveSpan) Link(sc SpanContext) {
	if s == nil || !sc.Valid() {
		return
	}
	s.mu.Lock()
	s.rec.Links = append(s.rec.Links, sc)
	s.mu.Unlock()
}

// End stamps the finish time and hands the span to the collector.
// Safe to call more than once; only the first End records.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.rec.End = s.tr.now()
	rec := s.rec
	s.mu.Unlock()
	s.tr.coll.add(rec)
}

// Collector keeps the most recent finished spans of one process in a
// bounded ring. Nil-safe like every other type here.
type Collector struct {
	mu    sync.Mutex
	ring  []Span
	next  int
	count int
	total uint64
}

// NewCollector returns a collector retaining the last capacity spans
// (minimum 1).
func NewCollector(capacity int) *Collector {
	if capacity < 1 {
		capacity = 1
	}
	return &Collector{ring: make([]Span, capacity)}
}

func (c *Collector) add(s Span) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ring[c.next] = s
	c.next = (c.next + 1) % len(c.ring)
	if c.count < len(c.ring) {
		c.count++
	}
	c.total++
	c.mu.Unlock()
}

// Total returns how many spans were ever recorded (including evicted
// ones).
func (c *Collector) Total() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Dropped returns how many spans the ring has evicted.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total - uint64(c.count)
}

// Trace returns every retained span of one trace, oldest first.
func (c *Collector) Trace(id TraceID) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Span
	for i := c.count; i >= 1; i-- {
		s := c.ring[(c.next-i+len(c.ring))%len(c.ring)]
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// Recent returns up to n retained spans, newest first (n <= 0: all).
func (c *Collector) Recent(n int) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || n > c.count {
		n = c.count
	}
	out := make([]Span, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, c.ring[(c.next-i+len(c.ring))%len(c.ring)])
	}
	return out
}

// TreeNode is one span with its children, as stitched by BuildForest.
type TreeNode struct {
	Span     Span        `json:"span"`
	Children []*TreeNode `json:"children,omitempty"`
}

// BuildForest assembles spans (possibly fetched from several nodes,
// possibly with duplicates) into parent/child trees. Roots are spans
// whose parent is absent from the set; trees and siblings are ordered
// by start time, then id, so output is stable.
func BuildForest(spans []Span) []*TreeNode {
	byID := make(map[SpanID]*TreeNode, len(spans))
	order := make([]SpanID, 0, len(spans))
	for i := range spans {
		s := spans[i]
		if _, dup := byID[s.ID]; dup {
			continue
		}
		byID[s.ID] = &TreeNode{Span: s}
		order = append(order, s.ID)
	}
	var roots []*TreeNode
	for _, id := range order {
		n := byID[id]
		if p, ok := byID[n.Span.Parent]; ok && !n.Span.Parent.IsZero() {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	less := func(a, b *TreeNode) bool {
		if !a.Span.Start.Equal(b.Span.Start) {
			return a.Span.Start.Before(b.Span.Start)
		}
		return a.Span.ID.String() < b.Span.ID.String()
	}
	var sortTree func(ns []*TreeNode)
	sortTree = func(ns []*TreeNode) {
		sort.Slice(ns, func(i, j int) bool { return less(ns[i], ns[j]) })
		for _, n := range ns {
			sortTree(n.Children)
		}
	}
	sortTree(roots)
	return roots
}

// Orphans returns the spans in the set whose parent id is non-zero but
// absent — the completeness check the chaos harness asserts on.
func Orphans(spans []Span) []Span {
	present := make(map[SpanID]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	var out []Span
	for _, s := range spans {
		if !s.Parent.IsZero() && !present[s.Parent] {
			out = append(out, s)
		}
	}
	return out
}
