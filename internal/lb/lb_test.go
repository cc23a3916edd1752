package lb

import (
	"testing"

	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
)

// fakeNode implements Node for routing tests.
type fakeNode struct {
	id      int
	active  int
	crashed bool
}

func (f *fakeNode) ID() int       { return f.id }
func (f *fakeNode) Active() int   { return f.active }
func (f *fakeNode) Crashed() bool { return f.crashed }

func TestDispatchLeastActive(t *testing.T) {
	nodes := []Node{
		&fakeNode{id: 0, active: 5},
		&fakeNode{id: 1, active: 2},
		&fakeNode{id: 2, active: 9},
	}
	l := New(core.Coarse, nodes)
	route, err := l.Dispatch("s", "")
	if err != nil {
		t.Fatal(err)
	}
	if route.Node.ID() != 1 {
		t.Fatalf("routed to %d, want 1", route.Node.ID())
	}
}

func TestDispatchSkipsCrashed(t *testing.T) {
	nodes := []Node{
		&fakeNode{id: 0, active: 0, crashed: true},
		&fakeNode{id: 1, active: 7},
	}
	l := New(core.Coarse, nodes)
	route, err := l.Dispatch("s", "")
	if err != nil {
		t.Fatal(err)
	}
	if route.Node.ID() != 1 {
		t.Fatalf("routed to crashed node")
	}
	if l.LiveReplicas() != 1 {
		t.Fatalf("LiveReplicas = %d", l.LiveReplicas())
	}
}

func TestDispatchAllCrashed(t *testing.T) {
	l := New(core.Coarse, []Node{&fakeNode{id: 0, crashed: true}})
	if _, err := l.Dispatch("s", ""); err != ErrNoReplicas {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
}

func TestDispatchSpreadsTies(t *testing.T) {
	nodes := []Node{
		&fakeNode{id: 0},
		&fakeNode{id: 1},
		&fakeNode{id: 2},
	}
	l := New(core.Coarse, nodes)
	seen := map[int]int{}
	for i := 0; i < 30; i++ {
		route, _ := l.Dispatch("s", "")
		seen[route.Node.ID()]++
	}
	for id := 0; id < 3; id++ {
		if seen[id] == 0 {
			t.Fatalf("node %d never chosen under ties: %v", id, seen)
		}
	}
}

func TestVersionTaggingPerMode(t *testing.T) {
	nodes := []Node{&fakeNode{id: 0}}
	observe := func(l *LoadBalancer) {
		l.ObserveCommit("alice", replica.CommitResult{Version: 5, WrittenTables: []string{"orders"}})
		l.ObserveCommit("bob", replica.CommitResult{Version: 7, WrittenTables: []string{"item"}})
	}

	l := New(core.Coarse, nodes)
	observe(l)
	if r, _ := l.Dispatch("carol", "any"); r.MinVersion != 7 {
		t.Fatalf("coarse min = %d, want 7", r.MinVersion)
	}

	l = New(core.Session, nodes)
	observe(l)
	if r, _ := l.Dispatch("alice", "any"); r.MinVersion != 5 {
		t.Fatalf("session(alice) min = %d, want 5", r.MinVersion)
	}
	if r, _ := l.Dispatch("carol", "any"); r.MinVersion != 0 {
		t.Fatalf("session(carol) min = %d, want 0", r.MinVersion)
	}

	l = New(core.Eager, nodes)
	observe(l)
	if r, _ := l.Dispatch("alice", "any"); r.MinVersion != 0 {
		t.Fatalf("eager min = %d, want 0", r.MinVersion)
	}

	l = New(core.Fine, nodes)
	l.RegisterTxn("readOrders", []string{"orders"})
	l.RegisterTxn("readItems", []string{"item"})
	l.RegisterTxn("readCountry", []string{"country"})
	observe(l)
	if r, _ := l.Dispatch("x", "readOrders"); r.MinVersion != 5 {
		t.Fatalf("fine(orders) min = %d, want 5", r.MinVersion)
	}
	if r, _ := l.Dispatch("x", "readItems"); r.MinVersion != 7 {
		t.Fatalf("fine(item) min = %d, want 7", r.MinVersion)
	}
	if r, _ := l.Dispatch("x", "readCountry"); r.MinVersion != 0 {
		t.Fatalf("fine(country) min = %d, want 0", r.MinVersion)
	}
	// Unknown transaction name: degrade to coarse, never weaker.
	if r, _ := l.Dispatch("x", "unknownTxn"); r.MinVersion != 7 {
		t.Fatalf("fine(unknown) min = %d, want 7 (coarse fallback)", r.MinVersion)
	}
}

func TestReadOnlyObservationKeepsSessionMonotonic(t *testing.T) {
	l := New(core.Session, []Node{&fakeNode{id: 0}})
	l.ObserveCommit("s", replica.CommitResult{Version: 9, ReadOnly: true})
	if r, _ := l.Dispatch("s", ""); r.MinVersion != 9 {
		t.Fatalf("session after read-only = %d, want 9", r.MinVersion)
	}
	// Read-only must not advance Vsystem (no update happened).
	if got := l.Tracker().VSystem(); got != 0 {
		t.Fatalf("Vsystem advanced by read-only commit: %d", got)
	}
	l.EndSession("s")
	if r, _ := l.Dispatch("s", ""); r.MinVersion != 0 {
		t.Fatalf("session survived EndSession: %d", r.MinVersion)
	}
}

func TestAddNode(t *testing.T) {
	l := New(core.Coarse, []Node{&fakeNode{id: 0, active: 3}})
	l.AddNode(&fakeNode{id: 1, active: 0})
	route, _ := l.Dispatch("s", "")
	if route.Node.ID() != 1 {
		t.Fatalf("new node not routable")
	}
}

func TestDispatchTables(t *testing.T) {
	l := New(core.Fine, []Node{&fakeNode{id: 0}})
	l.ObserveCommit("s", replica.CommitResult{Version: 4, WrittenTables: []string{"orders"}})
	l.ObserveCommit("s", replica.CommitResult{Version: 9, WrittenTables: []string{"item"}})
	if r, _ := l.DispatchCtx("x", "", []string{"orders"}, dtrace.SpanContext{}); r.MinVersion != 4 {
		t.Fatalf("explicit tables min = %d, want 4", r.MinVersion)
	}
	if r, _ := l.DispatchCtx("x", "", []string{"country"}, dtrace.SpanContext{}); r.MinVersion != 0 {
		t.Fatalf("untouched table min = %d, want 0", r.MinVersion)
	}
	// Non-fine modes ignore the set and use their own rule.
	lc := New(core.Coarse, []Node{&fakeNode{id: 0}})
	lc.ObserveCommit("s", replica.CommitResult{Version: 7, WrittenTables: []string{"t"}})
	if r, _ := lc.DispatchCtx("x", "", []string{"country"}, dtrace.SpanContext{}); r.MinVersion != 7 {
		t.Fatalf("coarse with explicit tables min = %d, want 7", r.MinVersion)
	}
}
