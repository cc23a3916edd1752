// Package shard defines the static table→shard assignment that keys
// the certifier's per-shard sequencers and the replicas' partial
// refresh subscriptions.
//
// A shard is a group of tables certified by one sequencer. Writesets
// whose tables all map to one shard are certified with zero shared
// locking against other shards; writesets spanning shards take the
// cross-shard reserve/seal handshake in ascending shard-ID order.
// Because conflicts require a common (table, key) pair — hence a
// common table, hence a common shard — the first-committer-wins test
// is complete when every involved shard's conflict index is consulted.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// Map is an immutable table→shard assignment over n shards. Tables
// with an explicit assignment use it; all others fall back to a
// deterministic FNV-1a hash, so every process in a cluster derives the
// same map from the same (n, assignments) configuration.
//
// A nil *Map behaves as a single shard (the unsharded legacy
// configuration).
type Map struct {
	n      int
	assign map[string]int
}

// New builds a map over n shards with the given explicit assignments
// (nil for pure hashing). n < 1 is rejected, as is any assignment
// outside [0, n).
func New(n int, assign map[string]int) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, have %d", n)
	}
	m := &Map{n: n}
	if len(assign) > 0 {
		m.assign = make(map[string]int, len(assign))
		for t, s := range assign {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("shard: table %q assigned to shard %d, want [0,%d)", t, s, n)
			}
			m.assign[t] = s
		}
	}
	return m, nil
}

// Single returns the one-shard map — the unsharded configuration.
func Single() *Map { return &Map{n: 1} }

// N returns the number of shards (1 for a nil map).
func (m *Map) N() int {
	if m == nil {
		return 1
	}
	return m.n
}

// Parse builds the map over n shards with the assignments spec lists as
// comma-separated table=shard pairs, the form Spec writes.
func Parse(n int, spec string) (*Map, error) {
	assign := map[string]int{}
	if spec != "" {
		for _, pair := range strings.Split(spec, ",") {
			table, id, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return nil, fmt.Errorf("shard: %q is not table=shard", pair)
			}
			s, err := strconv.Atoi(id)
			if err != nil {
				return nil, fmt.Errorf("shard: %q: %w", pair, err)
			}
			assign[table] = s
		}
	}
	return New(n, assign)
}

// Spec lists the explicit assignments as Parse reads them, in sorted
// order. With N they are the whole map: every other table hashes.
func (m *Map) Spec() string {
	var pairs []string
	if m != nil {
		for t, s := range m.assign {
			pairs = append(pairs, t+"="+strconv.Itoa(s))
		}
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// Lacks returns the first of ids that is no shard of m.
func (m *Map) Lacks(ids []int) (int, bool) {
	for _, id := range ids {
		if id < 0 || id >= m.N() {
			return id, true
		}
	}
	return 0, false
}

// Equal reports whether m and o assign every table alike.
func (m *Map) Equal(o *Map) bool { return m.N() == o.N() && m.Spec() == o.Spec() }

// Of returns the shard the table maps to.
func (m *Map) Of(table string) int {
	if m == nil || m.n == 1 {
		return 0
	}
	if s, ok := m.assign[table]; ok {
		return s
	}
	h := fnv.New32a()
	h.Write([]byte(table))
	return int(h.Sum32() % uint32(m.n))
}

// OfTables returns the ascending set of shards the tables map to. The
// first element is the transaction's home shard (the one that owns its
// history entry, decision memo, and durable log record).
func (m *Map) OfTables(tables []string) []int {
	if m == nil || m.n == 1 || len(tables) == 0 {
		return []int{0}
	}
	seen := make(map[int]bool, 2)
	out := make([]int, 0, 2)
	for _, t := range tables {
		s := m.Of(t)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// Covers reports whether the served shard set (nil = all shards)
// includes every shard in need.
func Covers(served []int, need []int) bool {
	if served == nil {
		return true
	}
	for _, n := range need {
		found := false
		for _, s := range served {
			if s == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
