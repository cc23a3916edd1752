package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get("a"); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if tr.Delete("a") {
		t.Fatal("Delete on empty tree returned true")
	}
	if it := tr.ScanAll(); it.Next() {
		t.Fatal("ScanAll on empty tree yielded a key")
	}
}

func TestSetGet(t *testing.T) {
	tr := New()
	if !tr.Set("b", 2) {
		t.Fatal("first Set reported update, want insert")
	}
	if tr.Set("b", 3) {
		t.Fatal("second Set reported insert, want update")
	}
	v, ok := tr.Get("b")
	if !ok || v.(int) != 3 {
		t.Fatalf("Get(b) = %v, %v; want 3, true", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestInsertManySorted(t *testing.T) {
	tr := New()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("%08d", i), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(fmt.Sprintf("%08d", i))
		if !ok || v.(int) != i {
			t.Fatalf("Get(%d) = %v, %v", i, v, ok)
		}
	}
	if tr.Height() == 0 {
		t.Fatal("tree with 5000 keys did not grow internal levels")
	}
}

func TestInsertManyRandomOrder(t *testing.T) {
	tr := New()
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Set(fmt.Sprintf("%08d", i), i)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	it := tr.ScanAll()
	want := 0
	for it.Next() {
		if it.Value().(int) != want {
			t.Fatalf("scan out of order: got value %v at position %d", it.Value(), want)
		}
		want++
	}
	if want != n {
		t.Fatalf("scanned %d keys, want %d", want, n)
	}
}

func TestScanRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Set(fmt.Sprintf("%03d", i), i)
	}
	var got []int
	it := tr.Scan("010", "020")
	for it.Next() {
		got = append(got, it.Value().(int))
	}
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("Scan[010,020) = %v", got)
	}
	// Range past the end.
	it = tr.Scan("099", "")
	n := 0
	for it.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("Scan[099,∞) yielded %d keys, want 1", n)
	}
	// Empty range.
	if it := tr.Scan("200", ""); it.Next() {
		t.Fatal("Scan past max key yielded a key")
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("%08d", i), i)
	}
	// Delete every other key.
	for i := 0; i < n; i += 2 {
		if !tr.Delete(fmt.Sprintf("%08d", i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(fmt.Sprintf("%08d", i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
	}
}

func TestDeleteAll(t *testing.T) {
	tr := New()
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("%08d", i), i)
	}
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		if !tr.Delete(fmt.Sprintf("%08d", i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all, want 0", tr.Len())
	}
	if tr.Height() != 0 {
		t.Fatalf("Height = %d after deleting all, want 0", tr.Height())
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	// Tree must remain usable.
	tr.Set("x", 1)
	if v, ok := tr.Get("x"); !ok || v.(int) != 1 {
		t.Fatal("tree unusable after full drain")
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New()
	tr.Set("a", 1)
	if tr.Delete("b") {
		t.Fatal("Delete of missing key returned true")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

// TestQuickAgainstMap drives the tree with random operation sequences and
// compares every observable behaviour against a plain map + sort oracle.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16) bool {
		tr := New()
		oracle := map[string]int{}
		for i, op := range ops {
			key := fmt.Sprintf("%04d", op%512)
			switch op % 3 {
			case 0, 1:
				tr.Set(key, i)
				oracle[key] = i
			case 2:
				delTree := tr.Delete(key)
				_, inOracle := oracle[key]
				if delTree != inOracle {
					return false
				}
				delete(oracle, key)
			}
		}
		if tr.Len() != len(oracle) {
			return false
		}
		// Full scan must equal sorted oracle keys.
		var want []string
		for k := range oracle {
			want = append(want, k)
		}
		sort.Strings(want)
		it := tr.ScanAll()
		for _, k := range want {
			if !it.Next() || it.Key() != k || it.Value().(int) != oracle[k] {
				return false
			}
		}
		if it.Next() {
			return false
		}
		return tr.check() == nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeScan checks that arbitrary range scans match the oracle.
func TestQuickRangeScan(t *testing.T) {
	f := func(keys []uint16, loRaw, hiRaw uint16) bool {
		tr := New()
		oracle := map[string]bool{}
		for _, k := range keys {
			s := fmt.Sprintf("%05d", k)
			tr.Set(s, nil)
			oracle[s] = true
		}
		lo := fmt.Sprintf("%05d", loRaw)
		hi := fmt.Sprintf("%05d", hiRaw)
		if hi < lo {
			lo, hi = hi, lo
		}
		var want []string
		for k := range oracle {
			if k >= lo && k < hi {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		it := tr.Scan(lo, hi)
		for _, k := range want {
			if !it.Next() || it.Key() != k {
				return false
			}
		}
		return !it.Next()
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDescend checks the backwards iterator against a sorted slice on a
// tree deep enough to cross leaves, with ranges whose bounds fall on,
// between and outside the keys, before and after deletions that empty
// whole leaves.
func TestDescend(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tr := New()
	present := map[string]bool{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("%05d", rng.Intn(6000)*2)
		tr.Set(k, k)
		present[k] = true
	}
	check := func() {
		t.Helper()
		var keys []string
		for k := range present {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for trial := 0; trial < 300; trial++ {
			lo := fmt.Sprintf("%05d", rng.Intn(12100))
			hi := fmt.Sprintf("%05d", rng.Intn(12100))
			switch trial % 5 {
			case 0:
				lo = ""
			case 1:
				hi = ""
			case 2:
				lo, hi = "", ""
			}
			var want []string
			for i := len(keys) - 1; i >= 0; i-- {
				if keys[i] >= lo && (hi == "" || keys[i] < hi) {
					want = append(want, keys[i])
				}
			}
			it := tr.Descend(lo, hi)
			for _, k := range want {
				if !it.Next() || it.Key() != k || it.Value() != k {
					t.Fatalf("Descend(%q, %q): got %q, want %q", lo, hi, it.Key(), k)
				}
			}
			if it.Next() {
				t.Fatalf("Descend(%q, %q): extra key %q", lo, hi, it.Key())
			}
		}
	}
	check()
	// Delete a contiguous stretch (whole leaves go) and a random half.
	for k := range present {
		if (k >= "03000" && k < "07000") || rng.Intn(2) == 0 {
			tr.Delete(k)
			delete(present, k)
		}
	}
	check()
	if it := New().Descend("", ""); it.Next() {
		t.Fatal("Descend on an empty tree yielded a key")
	}
}

func BenchmarkTreeInsert(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Set(fmt.Sprintf("%012d", i), i)
	}
}

func BenchmarkTreeGet(b *testing.B) {
	tr := New()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("%012d", i), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(fmt.Sprintf("%012d", i%n))
	}
}
