package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"os"
	"sort"
	"time"

	"sconrep/internal/obs/dtrace"
)

// span is one finished span: the benchmark's own (node "bench") or one
// of the cluster's dtrace spans converted to the same shape, so one
// self-time computation and one -trace-out format serve both.
type span struct {
	Name   string `json:"name"`
	Node   string `json:"node"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Start and End are nanoseconds since the run's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// spanRef names a recorded span as a parent. The zero value is "none".
type spanRef struct{ trace, id uint64 }

// spanRecorder keeps one goroutine's spans in memory. It is not safe
// for concurrent use: every driver goroutine owns one and they are
// merged after the run. A nil recorder records nothing, which is how
// the timed run stays untraced.
type spanRecorder struct {
	epoch time.Time
	// idBase keeps IDs of different recorders apart.
	idBase uint64
	spans  []span
}

func newSpanRecorder(epoch time.Time, index int) *spanRecorder {
	return &spanRecorder{epoch: epoch, idBase: uint64(index+1) << 40}
}

// start opens a span under parent (a zero parent starts a new trace)
// and returns its handle for end and ref; -1 on a nil recorder.
func (r *spanRecorder) start(name string, parent spanRef) int {
	if r == nil {
		return -1
	}
	id := r.idBase + uint64(len(r.spans)) + 1
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	r.spans = append(r.spans, span{
		Name: name, Node: "bench", Trace: trace, ID: id, Parent: parent.id,
		Start: int64(time.Since(r.epoch)),
	})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(h int) {
	if r == nil {
		return
	}
	r.spans[h].End = int64(time.Since(r.epoch))
}

func (r *spanRecorder) ref(h int) spanRef {
	if r == nil {
		return spanRef{}
	}
	return spanRef{trace: r.spans[h].Trace, id: r.spans[h].ID}
}

// fromDTrace converts the cluster's spans to the benchmark's shape.
func fromDTrace(in []dtrace.Span, epoch time.Time) []span {
	out := make([]span, len(in))
	for i := range in {
		s := &in[i]
		out[i] = span{
			Name: s.Name, Node: s.Node,
			Trace:  binary.BigEndian.Uint64(s.Trace[:8]),
			ID:     binary.BigEndian.Uint64(s.ID[:]),
			Parent: binary.BigEndian.Uint64(s.Parent[:]),
			Start:  int64(s.Start.Sub(epoch)),
			End:    int64(s.End.Sub(epoch)),
		}
	}
	return out
}

// selfTimes returns every span's self time in nanoseconds, keyed by
// span ID: its duration minus the part of that interval its child
// spans cover (overlapping children count once, and a child is clipped
// to its parent's interval). It also counts orphans: spans whose
// parent ID is set but absent from the set; an orphan keeps its own
// self time and reduces nobody's.
func selfTimes(spans []span) (self map[uint64]int64, orphans int) {
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	children := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			orphans++
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	self = make(map[uint64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self, orphans
}

// writeSpans writes one JSON object per line to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
