package wal

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"sconrep/internal/obs/dtrace"
	"sconrep/internal/writeset"
)

// goldenRecords is the fixed record set whose payloads
// testdata/records.golden pins: every op, every row value kind, nil
// apart from empty rows, a traced writeset, an empty one, and max
// uint64 where a version or transaction ID travels.
func goldenRecords() []struct {
	name string
	r    Record
} {
	var sc dtrace.SpanContext
	sc.Trace[0], sc.Trace[15], sc.Span[3] = 0xab, 0xcd, 0xef
	return []struct {
		name string
		r    Record
	}{
		{"ops", Record{Version: 7, TxnID: 70, WriteSet: writeset.WriteSet{Items: []writeset.Item{
			{Table: "t", Key: "k1", Op: writeset.OpInsert, Row: []any{int64(1), "a"}},
			{Table: "t", Key: "k2", Op: writeset.OpUpdate, Row: []any{int64(2), "b"}},
			{Table: "u", Key: "k3", Op: writeset.OpDelete},
		}}}},
		{"values", Record{Version: 8, TxnID: 80, WriteSet: writeset.WriteSet{Items: []writeset.Item{
			{Table: "v", Key: "", Op: writeset.OpUpdate, Row: []any{nil, int64(math.MinInt64), int64(math.MaxInt64),
				int64(0), math.Copysign(0, -1), math.Inf(1), 1.5, "", "héllo\x00", false, true}},
			{Table: "v", Key: "e", Op: writeset.OpInsert, Row: []any{}},
		}}}},
		{"traced", Record{Version: 9, TxnID: 90, WriteSet: writeset.WriteSet{Trace: &sc, Items: []writeset.Item{
			{Table: "t", Key: "k1", Op: writeset.OpDelete},
		}}}},
		{"empty", Record{Version: 10, TxnID: 100}},
		{"max", Record{Version: math.MaxUint64, TxnID: math.MaxUint64}},
	}
}

// TestRecordGolden pins appendRecord's bytes: a log written by another
// revision is replayed by this one, so a payload layout that changes
// under the same codecVersion would be misread rather than refused.
// Each payload also decodes and re-encodes to itself.
func TestRecordGolden(t *testing.T) {
	lines := []string{fmt.Sprintf("codecVersion %d", codecVersion)}
	for _, tc := range goldenRecords() {
		enc, err := appendRecord(nil, &tc.r)
		if err != nil {
			t.Fatal(err)
		}
		var back Record
		if err := parseRecord(enc, &back); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if again, _ := appendRecord(nil, &back); !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encoding diverged:\n got %x\nwant %x", tc.name, again, enc)
		}
		lines = append(lines, fmt.Sprintf("%s %x", tc.name, enc))
	}
	checkGolden(t, "testdata/records.golden", lines)
}

// goldenHeader opens a golden file.
const goldenHeader = "# One \"name hex\" line per test case, under the version they were encoded with.\n" +
	"# The test prints a new file only for a new version."

// checkGolden compares a layout's encodings — lines[0] names the
// version they were written under, each later line is "name hex" —
// with the golden file at path. Under an unchanged version any
// difference is a layout change that needs the version bumped, and the
// new bytes are not printed: there is nothing to commit until the bump.
// A golden of another version is stale, and the test prints the file
// to commit in its place. (internal/wire's frame golden has the twin.)
func checkGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	text, _ := os.ReadFile(path)
	var old []string
	for _, l := range strings.Split(string(text), "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			old = append(old, l)
		}
	}
	if slices.Equal(old, lines) {
		return
	}
	if len(old) > 0 && old[0] == lines[0] {
		var changed []string
		for _, l := range lines[1:] {
			if !slices.Contains(old, l) {
				changed = append(changed, strings.Fields(l)[0])
			}
		}
		for _, l := range old[1:] {
			if !slices.Contains(lines, l) && !slices.Contains(changed, strings.Fields(l)[0]) {
				changed = append(changed, strings.Fields(l)[0])
			}
		}
		t.Fatalf("%s: layout changed: bump codecVersion (%s differ from the golden written under %s)",
			path, strings.Join(changed, ", "), lines[0])
	}
	t.Fatalf("%s is not the golden of %s; after review, commit this as %s:\n%s\n%s\n",
		path, lines[0], path, goldenHeader, strings.Join(lines, "\n"))
}
