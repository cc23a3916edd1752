package shard

import (
	"reflect"
	"testing"
)

func TestMapDeterministic(t *testing.T) {
	a, err := New(4, map[string]int{"customer": 0, "item": 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(4, map[string]int{"customer": 0, "item": 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"customer", "item", "orders", "order_line", "zzz"} {
		if a.Of(table) != b.Of(table) {
			t.Fatalf("table %q maps differently across identical maps", table)
		}
		if s := a.Of(table); s < 0 || s >= 4 {
			t.Fatalf("table %q out of range: %d", table, s)
		}
	}
	if a.Of("customer") != 0 || a.Of("item") != 1 {
		t.Fatal("explicit assignments not honored")
	}
}

func TestMapValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Fatal("New(0) accepted")
	}
	if _, err := New(2, map[string]int{"t": 2}); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
}

func TestOfTables(t *testing.T) {
	m, err := New(4, map[string]int{"a": 3, "b": 1, "c": 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.OfTables([]string{"a", "b", "c"}); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("OfTables = %v, want [1 3]", got)
	}
	if got := m.OfTables([]string{"b"}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("OfTables = %v, want [1]", got)
	}
	var nilMap *Map
	if got := nilMap.OfTables([]string{"a", "b"}); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("nil map OfTables = %v, want [0]", got)
	}
	if nilMap.N() != 1 || nilMap.Of("x") != 0 {
		t.Fatal("nil map must behave as one shard")
	}
}

func TestCovers(t *testing.T) {
	if !Covers(nil, []int{0, 3}) {
		t.Fatal("nil served must cover everything")
	}
	if !Covers([]int{0, 1, 3}, []int{0, 3}) {
		t.Fatal("superset must cover")
	}
	if Covers([]int{0, 1}, []int{0, 3}) {
		t.Fatal("missing shard must not cover")
	}
}

// TestParseSpec: Spec writes the pins in one sorted form that Parse
// reads back to an equal map, whatever order they were given in; a pair
// that is not table=shard, or names a shard the map lacks, is refused.
func TestParseSpec(t *testing.T) {
	m, err := Parse(3, " orders=2,customer=0 ")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Spec(); got != "customer=0,orders=2" {
		t.Fatalf("Spec = %q", got)
	}
	back, err := Parse(m.N(), m.Spec())
	if err != nil || !back.Equal(m) || back.Of("orders") != 2 {
		t.Fatalf("Parse(Spec) = %v, %v; want a map equal to %q", back, err, m.Spec())
	}
	other, _ := Parse(3, "orders=1,customer=0")
	if m.Equal(other) || m.Equal(Single()) || !Single().Equal(nil) {
		t.Fatal("Equal does not tell maps apart by count and pins")
	}
	if id, ok := m.Lacks([]int{0, 2, 3}); !ok || id != 3 {
		t.Fatalf("Lacks = %d, %v; want 3", id, ok)
	}
	for _, bad := range []string{"orders", "orders=x", "orders=3", "orders=-1"} {
		if _, err := Parse(3, bad); err == nil {
			t.Errorf("Parse(3, %q) accepted", bad)
		}
	}
}
