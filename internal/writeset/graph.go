package writeset

// ConflictGraph is the write-write dependency DAG over an ordered run
// of writesets: there is an edge i → j (i < j) whenever wss[i] and
// wss[j] modify a common record, meaning j's install must wait for
// i's. Non-adjacent writesets with no path between them are free to
// apply concurrently — snapshot readers cannot distinguish any
// interleaving of non-conflicting installs once versions are published
// in order, which is exactly the property C5-style parallel refresh
// appliers exploit.
//
// Only the latest prior writer of each record is recorded as a
// predecessor: conflict edges compose transitively along a record's
// version chain, so the edge to an older writer is implied.
type ConflictGraph struct {
	// Succs[i] lists the later writesets that must wait for i, in
	// ascending order. Nil when Edges is zero.
	Succs [][]int
	// Deps[i] counts i's distinct direct predecessors (its in-degree).
	// Nil when Edges is zero.
	Deps []int
	// Edges counts the direct dependency edges. Zero means every
	// writeset in the run is pairwise record-disjoint; Succs and Deps
	// are not allocated for such runs — the builder sits on the
	// refresh-apply hot path, and the common no-conflict batch should
	// cost one map and nothing else.
	Edges int
	// CriticalPath is the length of the longest dependency chain — the
	// lower bound, in writesets, on the schedule's serial fraction. A
	// value equal to len(wss) means the run is one pure chain and
	// cutting it into concurrent runs cannot help.
	CriticalPath int
}

// tableWriters tracks, for one table, each record key's most recent
// writer index. Batches touch a handful of tables, so the per-table
// maps live in a small slice scanned linearly — avoiding both a
// two-level map and the per-record key concatenation a flat
// "table\x00key" map would allocate.
type tableWriters struct {
	name string
	last map[string]int
}

// GraphBuilder builds conflict graphs while recycling the per-table
// writer maps and scratch slices between calls. Graph construction
// runs once per group-applied refresh batch on the apply hot path;
// without recycling, the writer map alone dominates the batch's
// allocation profile. A builder may be used by one goroutine at a
// time — the replica's applying window (at most one batch inside the
// engine) provides exactly that serialization.
type GraphBuilder struct {
	tabs  []tableWriters
	preds []int
}

// NewConflictGraph builds the dependency DAG for an ordered run of
// writesets (wss[i] commits before wss[i+1]) with one-shot state; hot
// paths hold a GraphBuilder and call Build instead.
func NewConflictGraph(wss []*WriteSet) *ConflictGraph {
	var b GraphBuilder
	return b.Build(wss)
}

// Build builds the dependency DAG for an ordered run of writesets,
// reusing the builder's internal state. The returned graph does not
// alias that state and stays valid across later Build calls.
func (b *GraphBuilder) Build(wss []*WriteSet) *ConflictGraph {
	n := len(wss)
	g := &ConflictGraph{}
	if n > 0 {
		g.CriticalPath = 1
	}
	// Recycle the per-table writer maps: entries beyond inUse hold maps
	// from earlier builds, cleared and renamed as tables show up.
	inUse := 0
	var levels []int // allocated with Succs/Deps on the first edge
	preds := b.preds[:0]
	for i, ws := range wss {
		preds = preds[:0]
		for j := range ws.Items {
			it := &ws.Items[j]
			var last map[string]int
			for t := 0; t < inUse; t++ {
				if b.tabs[t].name == it.Table {
					last = b.tabs[t].last
					break
				}
			}
			if last == nil {
				if inUse < len(b.tabs) {
					b.tabs[inUse].name = it.Table
					last = b.tabs[inUse].last
					clear(last)
				} else {
					last = make(map[string]int, 64)
					b.tabs = append(b.tabs, tableWriters{name: it.Table, last: last})
				}
				inUse++
			}
			if p, ok := last[it.Key]; ok && p != i {
				dup := false
				for _, q := range preds {
					if q == p {
						dup = true
						break
					}
				}
				if !dup {
					preds = append(preds, p)
				}
			}
			last[it.Key] = i
		}
		if len(preds) == 0 {
			if levels != nil {
				levels[i] = 1
			}
			continue
		}
		if g.Succs == nil {
			g.Succs = make([][]int, n)
			g.Deps = make([]int, n)
			levels = make([]int, n)
			// Every writeset before the first edge is a source.
			for k := 0; k < i; k++ {
				levels[k] = 1
			}
		}
		level := 1
		for _, p := range preds {
			g.Succs[p] = append(g.Succs[p], i)
			g.Deps[i]++
			g.Edges++
			if levels[p]+1 > level {
				level = levels[p] + 1
			}
		}
		levels[i] = level
		if level > g.CriticalPath {
			g.CriticalPath = level
		}
	}
	b.preds = preds[:0]
	return g
}
