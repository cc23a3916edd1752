package certifier

import (
	"fmt"
	"testing"

	"sconrep/internal/shard"
	"sconrep/internal/writeset"
)

// historyCertifier returns a certifier over shards shards, tables
// t0..t3 pinned round-robin onto them, holding n commits: commit i
// writes table t(i mod 4), so with four shards consecutive versions
// live in different shards' histories and every History page is a
// merge, and with one shard all of them share one.
func historyCertifier(t *testing.T, shards int, n uint64) *Certifier {
	t.Helper()
	assign := make(map[string]int)
	for i := 0; i < 4; i++ {
		assign[fmt.Sprintf("t%d", i)] = i % shards
	}
	smap, err := shard.New(shards, assign)
	if err != nil {
		t.Fatal(err)
	}
	c := New(WithShards(smap))
	for i := uint64(1); i <= n; i++ {
		w := &writeset.WriteSet{Items: []writeset.Item{{
			Table: fmt.Sprintf("t%d", i%4), Key: fmt.Sprintf("k%d", i), Op: writeset.OpUpdate, Row: []any{"x"},
		}}}
		if _, err := c.Certify(0, i, i-1, w); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestHistoryBinarySearchEdges pins the History cut point against the
// full range of `after` values: below the oldest entry, every interior
// boundary, at the newest, and past it — over one shard and over four.
// History is version-ordered, so the binary-searched, merged suffix
// must equal the brute-force filter.
func TestHistoryBinarySearchEdges(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 64
			c := historyCertifier(t, shards, n)
			for after := uint64(0); after <= n+2; after++ {
				got := c.History(after)
				wantLen := 0
				if after < n {
					wantLen = int(n - after)
				}
				if len(got) != wantLen {
					t.Fatalf("History(%d) len = %d, want %d", after, len(got), wantLen)
				}
				for j, ref := range got {
					if want := after + uint64(j) + 1; ref.Version != want {
						t.Fatalf("History(%d)[%d].Version = %d, want %d", after, j, ref.Version, want)
					}
					if ref.WS == nil {
						t.Fatalf("History(%d)[%d] lost its writeset", after, j)
					}
				}
			}
		})
	}
}

// TestHistoryAfterTrim verifies the search still lands correctly when
// the history no longer starts at version 1, over one shard and over
// four: an `after` below the trim floor returns the whole retained
// suffix, and interior cuts stay exact.
func TestHistoryAfterTrim(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := historyCertifier(t, shards, 10)
			c.TrimBelow(6) // retained history: versions 7..10

			cases := []struct {
				after uint64
				first uint64
				n     int
			}{
				{0, 7, 4},  // below the floor: everything retained
				{6, 7, 4},  // exactly the floor
				{8, 9, 2},  // interior cut
				{10, 0, 0}, // at the newest
				{99, 0, 0}, // past the newest
			}
			for _, tc := range cases {
				got := c.History(tc.after)
				if len(got) != tc.n {
					t.Fatalf("History(%d) len = %d, want %d", tc.after, len(got), tc.n)
				}
				for j, ref := range got {
					if want := tc.first + uint64(j); ref.Version != want {
						t.Fatalf("History(%d)[%d].Version = %d, want %d", tc.after, j, ref.Version, want)
					}
				}
			}
		})
	}
}
