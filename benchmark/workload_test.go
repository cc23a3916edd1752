package main

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sconrep/internal/replica"
)

func microOps(sp spec, seed int64, n int) []op {
	g := newMicroGen(sp, seed, 0)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func tpcwOps(seed int64, n int) []string {
	g := newTpcwGen(seed, 0)
	out := make([]string, n)
	for i := range out {
		out[i] = g.next().Name
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	const n = 2000
	for _, sp := range specs {
		if sp.tpcw {
			a, b, c := tpcwOps(1, n), tpcwOps(1, n), tpcwOps(2, n)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: the same seed gave different interaction sequences", sp.name)
			}
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s: seeds 1 and 2 gave the same interaction sequence", sp.name)
			}
			continue
		}
		a, b, c := microOps(sp, 1, n), microOps(sp, 1, n), microOps(sp, 2, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different op sequences", sp.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", sp.name)
		}
		updates := 0
		for _, o := range a {
			if o.update {
				updates++
			}
			if o.key < 0 || o.key >= int64(microScale.RowsPerTable) {
				t.Fatalf("%s: key %d out of range", sp.name, o.key)
			}
		}
		if want := n * sp.updatePct / 100; updates < want-n/10 || updates > want+n/10 {
			t.Errorf("%s: %d updates of %d, want about %d", sp.name, updates, n, want)
		}
	}
	// Sessions of one seed must not replay each other.
	if reflect.DeepEqual(microOps(specs[1], 1, 100), func() []op {
		g := newMicroGen(specs[1], 1, 1)
		out := make([]op, 100)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}()) {
		t.Error("streams 0 and 1 of one seed gave the same op sequence")
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(10000, 1.1)
	r := newRng(1, 0)
	counts := make(map[int]int)
	const n = 100000
	for i := 0; i < n; i++ {
		k := z.sample(r)
		if k < 0 || k >= 10000 {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	// P(rank 0) = 1/H(10000, 1.1) ≈ 0.158.
	if p := float64(counts[0]) / n; p < 0.14 || p > 0.18 {
		t.Errorf("rank 0 drawn with frequency %.3f, want about 0.158", p)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Errorf("frequencies not decreasing: rank0=%d rank1=%d rank10=%d", counts[0], counts[1], counts[10])
	}
}

func TestRetryable(t *testing.T) {
	wrapped := fmt.Errorf("tpcw buyConfirm: %w", replica.ErrEarlyAbort)
	flattened := fmt.Errorf("tpcw buyConfirm: %w", fmt.Errorf("stock read: %v", replica.ErrCertifyConflict))
	for _, err := range []error{replica.ErrCertifyConflict, wrapped, flattened} {
		if !retryable(err) {
			t.Errorf("retryable(%q) = false, want true", err)
		}
	}
	for _, err := range []error{replica.ErrCrashed, errors.New("wire: session broken, reconnect")} {
		if retryable(err) {
			t.Errorf("retryable(%q) = true, want false", err)
		}
	}
}
