package lb

import (
	"testing"

	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
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
	alice := core.Floor{Version: 5}
	if r, _ := l.DispatchCtx("alice", "any", nil, alice, dtrace.SpanContext{}); r.MinVersion != 5 {
		t.Fatalf("session(alice) min = %d, want 5", r.MinVersion)
	}
	if r, _ := l.Dispatch("carol", "any"); r.MinVersion != 0 {
		t.Fatalf("session(carol) min = %d, want 0", r.MinVersion)
	}

	l = New(core.Eager, nodes)
	observe(l)
	if r, _ := l.DispatchCtx("alice", "any", nil, alice, dtrace.SpanContext{}); r.MinVersion != 0 {
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

// TestReadOnlyObservationKeepsSessionMonotonic: a read-only commit
// moves no balancer state; the session's floor, which its client raised
// to the read's snapshot, lifts the start tag above the mode's bound.
func TestReadOnlyObservationKeepsSessionMonotonic(t *testing.T) {
	l := New(core.Coarse, []Node{&fakeNode{id: 0}})
	l.ObserveCommit("s", replica.CommitResult{Version: 4, WrittenTables: []string{"t"}})
	l.ObserveCommit("s", replica.CommitResult{Version: 9, ReadOnly: true})
	if got := l.Tracker().VSystem(); got != 4 {
		t.Fatalf("Vsystem = %d after a read-only commit at 9, want 4", got)
	}
	for _, tc := range []struct {
		floor core.Floor
		want  uint64
	}{{core.Floor{}, 4}, {core.Floor{Version: 2}, 4}, {core.Floor{Version: 9}, 9}} {
		if r, _ := l.DispatchCtx("s", "", nil, tc.floor, dtrace.SpanContext{}); r.MinVersion != tc.want {
			t.Fatalf("floor %+v: min = %d, want %d", tc.floor, r.MinVersion, tc.want)
		}
	}
	// Fine: the floor of a declared table counts, another table's not.
	lf := New(core.Fine, []Node{&fakeNode{id: 0}})
	floor := core.Floor{Version: 30, Tables: []string{"a"}, Versions: []uint64{12}}
	if r, _ := lf.DispatchCtx("s", "", []string{"a"}, floor, dtrace.SpanContext{}); r.MinVersion != 12 {
		t.Fatalf("fine(a) min = %d, want 12", r.MinVersion)
	}
	if r, _ := lf.DispatchCtx("s", "", []string{"b"}, floor, dtrace.SpanContext{}); r.MinVersion != 0 {
		t.Fatalf("fine(b) min = %d, want 0", r.MinVersion)
	}
	// An unregistered name degrades to coarse, scalar floor included.
	if r, _ := lf.DispatchCtx("s", "unknown", nil, floor, dtrace.SpanContext{}); r.MinVersion != 30 {
		t.Fatalf("fine(unknown) min = %d, want 30", r.MinVersion)
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
	if r, _ := l.DispatchCtx("x", "", []string{"orders"}, core.Floor{}, dtrace.SpanContext{}); r.MinVersion != 4 {
		t.Fatalf("explicit tables min = %d, want 4", r.MinVersion)
	}
	if r, _ := l.DispatchCtx("x", "", []string{"country"}, core.Floor{}, dtrace.SpanContext{}); r.MinVersion != 0 {
		t.Fatalf("untouched table min = %d, want 0", r.MinVersion)
	}
	// Non-fine modes ignore the set and use their own rule.
	lc := New(core.Coarse, []Node{&fakeNode{id: 0}})
	lc.ObserveCommit("s", replica.CommitResult{Version: 7, WrittenTables: []string{"t"}})
	if r, _ := lc.DispatchCtx("x", "", []string{"country"}, core.Floor{}, dtrace.SpanContext{}); r.MinVersion != 7 {
		t.Fatalf("coarse with explicit tables min = %d, want 7", r.MinVersion)
	}
}

// TestSetShardRouting: the first map a node reports becomes the
// balancer's, and each node's served shards route transactions to it; a
// report of another map is refused and changes nothing, and a node that
// changes its shards is routed by the new ones.
func TestSetShardRouting(t *testing.T) {
	ab, _ := shard.New(2, map[string]int{"a": 0, "b": 1})
	ba, _ := shard.New(2, map[string]int{"a": 1, "b": 0})
	full, zero, one := &fakeNode{id: 0, active: 5}, &fakeNode{id: 1}, &fakeNode{id: 2}
	l := New(core.Coarse, []Node{full, zero, one})
	routeA := func() int {
		t.Helper()
		route, err := l.DispatchCtx("s", "", []string{"a"}, core.Floor{}, dtrace.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		return route.Node.ID()
	}
	if !l.SetShardRouting(0, ab, nil) || !l.SetShardRouting(1, ab, []int{0}) || !l.SetShardRouting(2, ab, []int{1}) {
		t.Fatal("a report of the first map refused")
	}
	// Replica 2 is idle but lacks a's shard; the full replica is busy.
	if id := routeA(); id != 1 {
		t.Fatalf("a routed to %d, want 1", id)
	}
	if l.SetShardRouting(2, ba, []int{0}) {
		t.Fatal("a report of another map accepted")
	}
	if id := routeA(); id != 1 {
		t.Fatalf("after a refused report, a routed to %d, want 1", id)
	}
	if !l.SetShardRouting(1, ab, []int{}) || !l.SetShardRouting(2, ab, []int{1}) || !l.SetShardRouting(1, ab, []int{1}) {
		t.Fatal("a report of the first map refused")
	}
	if id := routeA(); id != 0 {
		t.Fatalf("a routed to %d, want the full replica 0", id)
	}
}
