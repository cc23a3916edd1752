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

// TestLockOrder covers the lock-graph checks, including the seeded
// descending-reserve mutant and the opposite-order cycle.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, fixture("lockorder"), analysis.LockOrder)
}

// TestSuiteSilentOnCleanPackage runs all four analyzers over a
// package with no TxnNames registry, no guard annotations and no
// seeded-path registration: the suite must stay quiet rather than
// speculate.
func TestSuiteSilentOnCleanPackage(t *testing.T) {
	analysistest.Run(t, fixture("clean"), analysis.Analyzers()...)
}
