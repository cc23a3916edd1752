package analysis_test

import (
	"path/filepath"
	"testing"

	"sconrep/internal/analysis"
	"sconrep/internal/analysis/analysistest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

// TestTableSet covers the acceptance case directly: the fixture's
// "fix.under" transaction had a statement removed from its TxnNames
// declaration with the body unchanged, and the analyzer must error.
func TestTableSet(t *testing.T) {
	analysistest.Run(t, fixture("tableset"), analysis.TableSet)
}

// TestTableSetShard covers the shard-map checks: a declared table
// missing from ShardMap, a cross-shard transaction absent from
// CrossShardTxns, a single-shard transaction listed anyway, and a
// listed name with no TxnNames entry.
func TestTableSetShard(t *testing.T) {
	analysistest.Run(t, fixture("tablesetshard"), analysis.TableSet)
}

func TestLockCheck(t *testing.T) {
	analysistest.Run(t, fixture("lockcheck"), analysis.LockCheck)
}

func TestDeterminism(t *testing.T) {
	saved := analysis.DeterminismSeeded
	analysis.DeterminismSeeded = append([]string{"determinism"}, saved...)
	defer func() { analysis.DeterminismSeeded = saved }()
	analysistest.Run(t, fixture("determinism"), analysis.Determinism)
}

// TestDetCoverage covers the seeded-list gap check: a package outside
// DeterminismSeeded importing math/rand warns unless the import
// carries the det:unseeded-ok tag.
func TestDetCoverage(t *testing.T) {
	analysistest.Run(t, fixture("detcoverage"), analysis.Determinism)
}

// TestWireCompat covers the acceptance mutants directly: the fixture
// lock was written for an older revision of the package, so the moved
// version constant, the removed hello field, the type change, the
// unlocked additions, the reorder, and the field shapes that cannot
// travel must each be reported.
func TestWireCompat(t *testing.T) {
	saved := analysis.WireSchemaLockFile
	analysis.WireSchemaLockFile = fixture("wirecompat") + "/schema.lock"
	defer func() { analysis.WireSchemaLockFile = saved }()
	analysistest.Run(t, fixture("wirecompat"), analysis.WireCompat)
}

// TestLockOrder covers the lock-graph checks, including the seeded
// descending-reserve mutant and the opposite-order cycle.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, fixture("lockorder"), analysis.LockOrder)
}

// TestSchemaLockRoundTrip pins the lockfile codec: parsing a
// formatted schema reproduces it byte-for-byte.
func TestSchemaLockRoundTrip(t *testing.T) {
	s := &analysis.Schema{Versions: map[string]int64{"p": 3, "q": 1}, Structs: map[string]*analysis.SchemaStruct{
		"p.b": {Name: "p.b", Fields: []analysis.SchemaField{{Name: "X", Type: "map[string]uint64"}}},
		"p.a": {Name: "p.a", Fields: []analysis.SchemaField{
			{Name: "Seq", Type: "uint64"},
			{Name: "WS", Type: "*p.ws"},
		}},
	}}
	data := s.Format()
	parsed, err := analysis.ParseSchemaLock(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := string(parsed.Format()); got != string(data) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", got, data)
	}
}

// TestCheckBump pins the regeneration rule: a layout change (or a
// dropped struct) under the locked codecVersion is refused, the same
// change with the version bumped — or no change at all — is accepted.
func TestCheckBump(t *testing.T) {
	schema := func(version int64, fields ...string) *analysis.Schema {
		st := &analysis.SchemaStruct{Name: "p.frame"}
		for _, f := range fields {
			st.Fields = append(st.Fields, analysis.SchemaField{Name: f, Type: "uint64"})
		}
		return &analysis.Schema{Versions: map[string]int64{"p": version},
			Structs: map[string]*analysis.SchemaStruct{"p.frame": st}}
	}
	old := schema(1, "Seq", "Version")
	old.Structs["p.gone"] = &analysis.SchemaStruct{Name: "p.gone"}
	withGone := func(s *analysis.Schema) *analysis.Schema {
		s.Structs["p.gone"] = old.Structs["p.gone"]
		return s
	}
	for _, tc := range []struct {
		name string
		cur  *analysis.Schema
		ok   bool
	}{
		{"unchanged", withGone(schema(1, "Seq", "Version")), true},
		{"field added, same version", withGone(schema(1, "Seq", "Version", "Extra")), false},
		{"fields reordered, same version", withGone(schema(1, "Version", "Seq")), false},
		{"field added, version bumped", withGone(schema(2, "Seq", "Version", "Extra")), true},
		{"struct dropped, same version", schema(1, "Seq", "Version"), false},
		{"struct dropped, version bumped", schema(2, "Seq", "Version"), true},
	} {
		err := analysis.CheckBump(old, []*analysis.Schema{tc.cur})
		if (err == nil) != tc.ok {
			t.Errorf("%s: CheckBump = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if err := analysis.CheckBump(nil, []*analysis.Schema{schema(1, "Seq")}); err != nil {
		t.Errorf("no previous lock: %v", err)
	}
}

// TestSuiteSilentOnCleanPackage runs all five analyzers over a
// package with no TxnNames registry, no guard annotations, no
// seeded-path registration, and no codec entry points: the suite must
// stay quiet rather than speculate.
func TestSuiteSilentOnCleanPackage(t *testing.T) {
	analysistest.Run(t, fixture("clean"), analysis.Analyzers()...)
}
