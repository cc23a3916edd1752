package main

import "testing"

func TestSelfTimeForest(t *testing.T) {
	spans := []span{
		// Root with two overlapping children and one that outlives it.
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "late", ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild reduces its parent only.
		{Name: "a1", ID: 5, Parent: 2, Start: 15, End: 25},
		// An orphan: its parent was never recorded.
		{Name: "orphan", ID: 6, Parent: 99, Start: 200, End: 230},
		// A second tree.
		{Name: "root2", ID: 7, Start: 300, End: 310},
	}
	self, orphans := selfTimes(spans)
	if orphans != 1 {
		t.Errorf("orphans = %d, want 1", orphans)
	}
	want := map[uint64]int64{
		1: 100 - (50 + 10), // [10,60) covered once, [90,100) clipped
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
		6: 30,
		7: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeChildInsideSibling(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 90},
		{ID: 3, Parent: 1, Start: 20, End: 30}, // wholly inside its sibling
	}
	self, _ := selfTimes(spans)
	if self[1] != 20 {
		t.Errorf("self = %d, want 20: a child inside its sibling must not be counted twice", self[1])
	}
}

func TestSpanRecorder(t *testing.T) {
	var none *spanRecorder
	if h := none.start("x", spanRef{}); h != -1 {
		t.Errorf("nil recorder start = %d, want -1", h)
	}
	none.end(-1)
	if ref := none.ref(-1); ref != (spanRef{}) {
		t.Errorf("nil recorder ref = %+v, want zero", ref)
	}
}
