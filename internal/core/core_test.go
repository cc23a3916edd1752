package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestModeStrings(t *testing.T) {
	cases := map[Mode]string{Eager: "ESC", Coarse: "CSC", Fine: "FSC", Session: "SC"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
		back, err := ParseMode(want)
		if err != nil || back != m {
			t.Errorf("ParseMode(%q) = %v, %v", want, back, err)
		}
	}
	if !Eager.Strong() || !Coarse.Strong() || !Fine.Strong() {
		t.Error("strong modes misreported")
	}
	if Session.Strong() {
		t.Error("session consistency reported as strong")
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus mode")
	}
}

// TestTableI reproduces Table I of the paper exactly: six update
// transactions over tables A, B, C and the resulting database and
// table versions.
func TestTableI(t *testing.T) {
	tr := NewTracker()
	steps := []struct {
		tables              []string
		wantSys             uint64
		wantA, wantB, wantC uint64
	}{
		{[]string{"a"}, 1, 1, 0, 0},      // T1 updates A
		{[]string{"b", "c"}, 2, 1, 2, 2}, // T2 updates B,C
		{[]string{"b"}, 3, 1, 3, 2},      // T3 updates B
		{[]string{"c"}, 4, 1, 3, 4},      // T4 updates C
		{[]string{"b", "c"}, 5, 1, 5, 5}, // T5 updates B,C
	}
	for i, st := range steps {
		tr.ObserveCommit(uint64(i+1), st.tables)
		if got := tr.VSystem(); got != st.wantSys {
			t.Fatalf("after T%d: Vsystem = %d, want %d", i+1, got, st.wantSys)
		}
		if got := tr.TableVersion("a"); got != st.wantA {
			t.Fatalf("after T%d: VA = %d, want %d", i+1, got, st.wantA)
		}
		if got := tr.TableVersion("b"); got != st.wantB {
			t.Fatalf("after T%d: VB = %d, want %d", i+1, got, st.wantB)
		}
		if got := tr.TableVersion("c"); got != st.wantC {
			t.Fatalf("after T%d: VC = %d, want %d", i+1, got, st.wantC)
		}
	}

	// T6 reads and writes table A only. The paper's point: coarse
	// requires Vlocal = 5, fine requires only Vlocal = 1.
	if got := tr.MinStartVersion(Coarse, []string{"a"}, Floor{}); got != 5 {
		t.Fatalf("CSC start version = %d, want 5", got)
	}
	if got := tr.MinStartVersion(Fine, []string{"a"}, Floor{}); got != 1 {
		t.Fatalf("FSC start version = %d, want 1", got)
	}
	if got := tr.MinStartVersion(Eager, []string{"a"}, Floor{}); got != 0 {
		t.Fatalf("ESC start version = %d, want 0", got)
	}
}

func TestFineReadOnlyTablesStartImmediately(t *testing.T) {
	tr := NewTracker()
	tr.ObserveCommit(1, []string{"orders"})
	tr.ObserveCommit(2, []string{"orders"})
	// "country" has never been written: fine-grained needs version 0.
	if got := tr.MinStartVersion(Fine, []string{"country"}, Floor{}); got != 0 {
		t.Fatalf("FSC on read-only table = %d, want 0", got)
	}
	if got := tr.MinStartVersion(Fine, []string{"country", "orders"}, Floor{}); got != 2 {
		t.Fatalf("FSC on mixed set = %d, want 2", got)
	}
}

// TestSessionTracking: each session's floor is its own, and the
// tracker adds every session's commits to the coarse bound.
// TestSeedFloorsEveryTable: a seed raises Vsystem and floors every
// table's Vt, known or not, so FSC starts at it like CSC; a later commit
// raises only its own tables, a lower seed changes nothing, and a
// transaction over no table is not held.
func TestSeedFloorsEveryTable(t *testing.T) {
	tr := NewTracker()
	tr.Seed(5)
	if v := tr.VSystem(); v != 5 {
		t.Fatalf("Vsystem %d after Seed(5)", v)
	}
	for _, tc := range []struct {
		mode   Mode
		tables []string
		want   uint64
	}{{Coarse, nil, 5}, {Fine, []string{"a"}, 5}, {Fine, nil, 0}, {Session, []string{"a"}, 0}} {
		if got := tr.MinStartVersion(tc.mode, tc.tables, Floor{}); got != tc.want {
			t.Errorf("%v over %v after Seed(5): start %d, want %d", tc.mode, tc.tables, got, tc.want)
		}
	}
	tr.ObserveCommit(7, []string{"a"})
	tr.Seed(3)
	if a, b := tr.MinStartVersion(Fine, []string{"a"}, Floor{}), tr.MinStartVersion(Fine, []string{"b"}, Floor{}); a != 7 || b != 5 {
		t.Errorf("FSC starts a at %d, b at %d; want 7 and 5", a, b)
	}
	if v := tr.VSystem(); v != 7 {
		t.Errorf("Vsystem %d after a commit at 7 and Seed(3), want 7", v)
	}
}

func TestSessionTracking(t *testing.T) {
	tr := NewTracker()
	var alice, bob Floor
	tr.ObserveCommit(3, []string{"t"})
	alice.Observe(3, nil, nil)
	tr.ObserveCommit(7, []string{"t"})
	bob.Observe(7, nil, nil)
	if got := tr.MinStartVersion(Session, nil, alice); got != 3 {
		t.Fatalf("alice session version = %d, want 3", got)
	}
	if got := tr.MinStartVersion(Session, nil, bob); got != 7 {
		t.Fatalf("bob session version = %d, want 7", got)
	}
	if got := tr.MinStartVersion(Session, nil, Floor{}); got != 0 {
		t.Fatalf("new session version = %d, want 0", got)
	}
	// Coarse sees every session's updates.
	if got := tr.MinStartVersion(Coarse, nil, alice); got != 7 {
		t.Fatalf("coarse after bob = %d, want 7", got)
	}
}

func TestObserveReadOnlyAdvancesSessionMonotonically(t *testing.T) {
	tr := NewTracker()
	var s Floor
	tr.ObserveCommit(5, []string{"t"})
	s.Observe(5, nil, nil)
	s.Observe(9, nil, nil) // read a snapshot at 9 on a fresh replica
	if got := tr.MinStartVersion(Coarse, nil, s); got != 9 {
		t.Fatalf("coarse after a read at 9 = %d, want 9", got)
	}
	s.Observe(2, nil, nil) // an older read must not regress
	if got := tr.MinStartVersion(Session, nil, s); got != 9 {
		t.Fatalf("session regressed to %d", got)
	}
}

// TestFinePerTableSessionFloor pins the fine-grained session rule: the
// session floor is per table, so a read-only commit at a fresh
// snapshot must not make the session's next transaction on a cold
// table wait — the §III-C benefit the scalar floor would erase — while
// tables the session actually observed writes to stay floored.
func TestFinePerTableSessionFloor(t *testing.T) {
	tr := NewTracker()
	var s Floor
	tr.ObserveCommit(100, []string{"hot"})
	s.Observe(100, []string{"hot"}, []uint64{100})
	// A read on a busy replica observed snapshot 500; the scalar floor
	// advances (coarse/session semantics) but must not leak into fine.
	s.Observe(500, []string{"hot"}, []uint64{0})
	if got := tr.MinStartVersion(Fine, []string{"cold"}, s); got != 0 {
		t.Fatalf("fine(cold) = %d, want 0: scalar session floor leaked into the per-table rule", got)
	}
	if got := tr.MinStartVersion(Fine, []string{"hot"}, s); got != 100 {
		t.Fatalf("fine(hot) = %d, want 100", got)
	}
	if got := tr.MinStartVersion(Coarse, nil, s); got != 500 {
		t.Fatalf("coarse = %d, want 500 (scalar floor intact)", got)
	}
	// The replica reported the newest write to "cold" this session
	// could have observed: subsequent reads of it must not regress.
	s.Observe(500, []string{"cold"}, []uint64{42})
	if got := tr.MinStartVersion(Fine, []string{"cold"}, s); got != 42 {
		t.Fatalf("fine(cold) after observation = %d, want 42", got)
	}
	// Another session owes nothing to s's observations.
	if got := tr.MinStartVersion(Fine, []string{"cold"}, Floor{}); got != 0 {
		t.Fatalf("fine(cold) for fresh session = %d, want 0", got)
	}
	// A table enters the floor once, and a zero version is no bound: it
	// enters nothing.
	s.Observe(0, []string{"warm", "cold", "idle"}, []uint64{7, 40, 0})
	if len(s.Tables) != 3 || s.Tables[2] != "warm" || s.Versions[2] != 7 || s.table("cold") != 42 {
		t.Fatalf("floor = %v %v, want [hot cold warm] [100 42 7]", s.Tables, s.Versions)
	}
}

func TestOutOfOrderObservations(t *testing.T) {
	tr := NewTracker()
	tr.ObserveCommit(5, []string{"x"})
	tr.ObserveCommit(3, []string{"x", "y"})
	if tr.VSystem() != 5 {
		t.Fatalf("Vsystem = %d, want 5", tr.VSystem())
	}
	if tr.TableVersion("x") != 5 {
		t.Fatalf("Vx = %d, want 5", tr.TableVersion("x"))
	}
	if tr.TableVersion("y") != 3 {
		t.Fatalf("Vy = %d, want 3", tr.TableVersion("y"))
	}
	var s Floor
	s.Observe(5, []string{"x"}, []uint64{5})
	s.Observe(3, []string{"x", "y"}, []uint64{3, 3})
	if s.Version != 5 || s.table("x") != 5 || s.table("y") != 3 {
		t.Fatalf("floor = %d, x %d, y %d; want 5, 5, 3", s.Version, s.table("x"), s.table("y"))
	}
}

func TestRegistry(t *testing.T) {
	r := NewTableSetRegistry()
	r.Register("getBestSellers", []string{"order_line", "item", "orders"})
	ts, ok := r.Lookup("getBestSellers")
	if !ok || len(ts) != 3 {
		t.Fatalf("lookup = %v, %v", ts, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("lookup of unregistered name succeeded")
	}
	// The registry must copy: callers mutating their slice must not
	// affect stored sets.
	src := []string{"a"}
	r.Register("t", src)
	src[0] = "mutated"
	ts, _ = r.Lookup("t")
	if ts[0] != "a" {
		t.Fatal("registry shares storage with caller")
	}
	if len(r.Names()) != 2 {
		t.Fatalf("names = %v", r.Names())
	}
}

// TestQuickInvariants checks the ordering invariants of the tracker
// under random observation sequences:
//
//  1. Vsystem = max over all observed versions.
//  2. Vt ≤ Vsystem for every table.
//  3. Fine start version ≤ Coarse start version (Theorem 2's benefit).
//  4. Session start version ≤ Coarse start version.
//  5. MinStartVersion(Fine, S) = max over tables in S of
//     max(Vt, the session's per-table floor).
//
// Each session's Floor observes its own commits, as its client does.
func TestQuickInvariants(t *testing.T) {
	type obs struct {
		Version uint64
		Tables  []uint8
		Session uint8
	}
	f := func(observations []obs, probe []uint8, sess uint8) bool {
		tr := NewTracker()
		var maxV uint64
		sessions := map[string]*Floor{}
		// Mirror of the per-session per-table floors the Floors should
		// accumulate from the commit responses.
		floors := map[string]map[string]uint64{}
		for _, o := range observations {
			v := o.Version % 1000
			var tabs []string
			var vers []uint64
			tv := map[string]uint64{}
			for _, tb := range o.Tables {
				tab := string(rune('a' + tb%6))
				tabs = append(tabs, tab)
				vers = append(vers, v)
				tv[tab] = v
			}
			session := string(rune('A' + o.Session%4))
			tr.ObserveCommit(v, tabs)
			if sessions[session] == nil {
				sessions[session] = &Floor{}
			}
			sessions[session].Observe(v, tabs, vers)
			m := floors[session]
			if m == nil {
				m = map[string]uint64{}
				floors[session] = m
			}
			for tab, fv := range tv {
				if fv > m[tab] {
					m[tab] = fv
				}
			}
			if v > maxV {
				maxV = v
			}
		}
		if tr.VSystem() != maxV {
			return false
		}
		var probeSet []string
		for _, tb := range probe {
			probeSet = append(probeSet, string(rune('a'+tb%6)))
		}
		session := string(rune('A' + sess%4))
		var floor Floor
		if f := sessions[session]; f != nil {
			floor = *f
		}
		coarse := tr.MinStartVersion(Coarse, probeSet, floor)
		fine := tr.MinStartVersion(Fine, probeSet, floor)
		sessionV := tr.MinStartVersion(Session, probeSet, floor)
		if fine > coarse || sessionV > coarse {
			return false
		}
		var wantFine uint64
		for _, tb := range probeSet {
			if v := tr.TableVersion(tb); v > wantFine {
				wantFine = v
			}
			if v := floors[session][tb]; v > wantFine {
				wantFine = v
			}
			if tr.TableVersion(tb) > tr.VSystem() {
				return false
			}
		}
		return fine == wantFine
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(51))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
