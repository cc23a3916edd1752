package storage

import (
	"fmt"
	"sort"
	"strings"
)

// IndexDump renders every secondary index of every table, tables and
// indexes in name order, entries in index order: each entry's key, how
// many linked versions carry its value, and the key and head version of
// the chain it leads to. The engine must be quiescent.
func IndexDump(e *Engine) string {
	var b strings.Builder
	for _, name := range e.TablesSorted() {
		t := e.tables[name]
		keyOf := map[*chain]string{}
		for it := t.rows.ScanAll(); it.Next(); {
			keyOf[it.Value().(*chain)] = it.Key()
		}
		var ixNames []string
		for ixName := range t.indexes {
			ixNames = append(ixNames, ixName)
		}
		sort.Strings(ixNames)
		for _, ixName := range ixNames {
			fmt.Fprintf(&b, "%s.%s:", name, ixName)
			for it := t.indexes[ixName].tree.ScanAll(); it.Next(); {
				ent := it.Value().(*ixEntry)
				fmt.Fprintf(&b, " %q n=%d ->%q@%d", it.Key(), ent.n, keyOf[ent.ch], ent.ch.head.Load().version)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
