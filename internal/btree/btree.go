// Package btree implements an in-memory B+ tree keyed by byte strings.
//
// It is the ordering substrate for the storage engine's primary and
// secondary indexes: values are opaque, keys are compared bytewise, and
// leaves are chained so range scans are a leaf walk. The tree is not
// safe for concurrent mutation; the storage engine serializes writers
// and uses its own MVCC machinery for readers.
package btree

import "fmt"

// degree is the maximum number of children of an internal node. Leaves
// hold up to degree-1 keys. 64 keeps nodes around a cache line multiple
// without making splits expensive.
const degree = 64

const maxKeys = degree - 1
const minKeys = maxKeys / 2

// Tree is a B+ tree mapping string keys to arbitrary values.
// The zero value is not usable; call New.
type Tree struct {
	root   node
	height int
	size   int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &leaf{}, height: 0}
}

// node is either *internal or *leaf.
type node interface {
	// firstKey returns the smallest key in the subtree.
	firstKey() string
}

type internal struct {
	// keys[i] is the smallest key reachable under children[i+1].
	keys     []string
	children []node
}

type leaf struct {
	keys   []string
	values []any
	next   *leaf
	prev   *leaf
}

func (n *internal) firstKey() string { return n.children[0].firstKey() }
func (l *leaf) firstKey() string {
	if len(l.keys) == 0 {
		return ""
	}
	return l.keys[0]
}

// Len returns the number of keys stored in the tree.
func (t *Tree) Len() int { return t.size }

// search returns the index of the first key in keys that is >= k,
// i.e. the insertion point.
func search(keys []string, k string) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child of n to descend into for key k.
func (n *internal) childIndex(k string) int {
	// keys[i] is the first key of children[i+1]; descend into the last
	// child whose separator is <= k.
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return i + 1
	}
	return i
}

// findLeaf descends to the leaf that does or would contain k.
func (t *Tree) findLeaf(k string) *leaf {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v
		case *internal:
			n = v.children[v.childIndex(k)]
		}
	}
}

// Get returns the value stored under k.
func (t *Tree) Get(k string) (any, bool) {
	l := t.findLeaf(k)
	i := search(l.keys, k)
	if i < len(l.keys) && l.keys[i] == k {
		return l.values[i], true
	}
	return nil, false
}

// Set inserts or replaces the value under k and reports whether the key
// was newly inserted.
func (t *Tree) Set(k string, v any) bool {
	inserted := t.insert(t.root, k, v)
	if inserted {
		t.size++
	}
	return inserted
}

// insert adds k/v under n, splitting the root if needed.
func (t *Tree) insert(n node, k string, v any) bool {
	newChild, sepKey, inserted := t.insertRec(n, k, v)
	if newChild != nil {
		// Root split: grow the tree by one level.
		t.root = &internal{
			keys:     []string{sepKey},
			children: []node{n, newChild},
		}
		t.height++
	}
	return inserted
}

// insertRec inserts k/v into the subtree rooted at n. If n split, it
// returns the new right sibling and the separator key.
func (t *Tree) insertRec(n node, k string, v any) (node, string, bool) {
	switch nd := n.(type) {
	case *leaf:
		i := search(nd.keys, k)
		if i < len(nd.keys) && nd.keys[i] == k {
			nd.values[i] = v
			return nil, "", false
		}
		nd.keys = append(nd.keys, "")
		copy(nd.keys[i+1:], nd.keys[i:])
		nd.keys[i] = k
		nd.values = append(nd.values, nil)
		copy(nd.values[i+1:], nd.values[i:])
		nd.values[i] = v
		if len(nd.keys) > maxKeys {
			right := t.splitLeaf(nd)
			return right, right.keys[0], true
		}
		return nil, "", true

	case *internal:
		ci := nd.childIndex(k)
		newChild, sepKey, inserted := t.insertRec(nd.children[ci], k, v)
		if newChild != nil {
			nd.keys = append(nd.keys, "")
			copy(nd.keys[ci+1:], nd.keys[ci:])
			nd.keys[ci] = sepKey
			nd.children = append(nd.children, nil)
			copy(nd.children[ci+2:], nd.children[ci+1:])
			nd.children[ci+1] = newChild
			if len(nd.children) > degree {
				right, sep := t.splitInternal(nd)
				return right, sep, inserted
			}
		}
		return nil, "", inserted
	}
	panic("btree: unknown node type")
}

func (t *Tree) splitLeaf(l *leaf) *leaf {
	mid := len(l.keys) / 2
	right := &leaf{
		keys:   append([]string(nil), l.keys[mid:]...),
		values: append([]any(nil), l.values[mid:]...),
		next:   l.next,
		prev:   l,
	}
	if l.next != nil {
		l.next.prev = right
	}
	l.keys = l.keys[:mid:mid]
	l.values = l.values[:mid:mid]
	l.next = right
	return right
}

func (t *Tree) splitInternal(n *internal) (*internal, string) {
	// Children split at midC; keys[midC-1] is promoted.
	midC := len(n.children) / 2
	sep := n.keys[midC-1]
	right := &internal{
		keys:     append([]string(nil), n.keys[midC:]...),
		children: append([]node(nil), n.children[midC:]...),
	}
	n.keys = n.keys[: midC-1 : midC-1]
	n.children = n.children[:midC:midC]
	return right, sep
}

// Delete removes k and reports whether it was present.
//
// Deletion uses lazy rebalancing: underfull nodes are merged with a
// sibling only when they become empty, which keeps the implementation
// simple while preserving the search and scan invariants. Workloads in
// this system delete rarely (MVCC keeps tombstones at the storage layer),
// so the weaker occupancy bound is acceptable.
func (t *Tree) Delete(k string) bool {
	deleted := t.deleteRec(t.root, k)
	if deleted {
		t.size--
	}
	// Shrink the root when it has a single child.
	for {
		r, ok := t.root.(*internal)
		if !ok || len(r.children) != 1 {
			break
		}
		t.root = r.children[0]
		t.height--
	}
	return deleted
}

func (t *Tree) deleteRec(n node, k string) bool {
	switch nd := n.(type) {
	case *leaf:
		i := search(nd.keys, k)
		if i >= len(nd.keys) || nd.keys[i] != k {
			return false
		}
		nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
		nd.values = append(nd.values[:i], nd.values[i+1:]...)
		return true

	case *internal:
		ci := nd.childIndex(k)
		deleted := t.deleteRec(nd.children[ci], k)
		if deleted {
			t.unlinkIfEmpty(nd, ci)
		}
		return deleted
	}
	panic("btree: unknown node type")
}

// unlinkIfEmpty removes children[ci] from n if it became empty.
func (t *Tree) unlinkIfEmpty(n *internal, ci int) {
	switch c := n.children[ci].(type) {
	case *leaf:
		if len(c.keys) > 0 {
			return
		}
		if c.prev != nil {
			c.prev.next = c.next
		}
		if c.next != nil {
			c.next.prev = c.prev
		}
	case *internal:
		if len(c.children) > 0 {
			return
		}
	}
	n.children = append(n.children[:ci], n.children[ci+1:]...)
	if len(n.keys) > 0 {
		ki := ci
		if ki > 0 {
			ki--
		}
		n.keys = append(n.keys[:ki], n.keys[ki+1:]...)
	}
}

// Iter is an iterator over a key range, ascending (Scan) or descending
// (Descend).
type Iter struct {
	l    *leaf
	i    int
	lo   string // inclusive lower bound; checked when descending
	hi   string // exclusive upper bound, "" means unbounded; checked when ascending
	back bool
	k    string
	v    any
	done bool
}

// Scan returns an iterator over keys in [lo, hi). An empty hi means
// "to the end". Call Next until it returns false.
func (t *Tree) Scan(lo, hi string) *Iter {
	l := t.findLeaf(lo)
	i := search(l.keys, lo)
	return &Iter{l: l, i: i, hi: hi}
}

// ScanAll returns an iterator over the whole tree.
func (t *Tree) ScanAll() *Iter { return t.Scan("", "") }

// Descend returns an iterator over keys in [lo, hi) from the largest
// down. An empty hi means "from the end".
func (t *Tree) Descend(lo, hi string) *Iter {
	if hi != "" {
		l := t.findLeaf(hi)
		return &Iter{l: l, i: search(l.keys, hi) - 1, lo: lo, back: true}
	}
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return &Iter{l: v, i: len(v.keys) - 1, lo: lo, back: true}
		case *internal:
			n = v.children[len(v.children)-1]
		}
	}
}

// Next advances the iterator and reports whether a pair is available
// via Key/Value.
func (it *Iter) Next() bool {
	if it.done {
		return false
	}
	if it.back {
		for it.l != nil && it.i < 0 {
			if it.l = it.l.prev; it.l != nil {
				it.i = len(it.l.keys) - 1
			}
		}
	} else {
		for it.l != nil && it.i >= len(it.l.keys) {
			it.l = it.l.next
			it.i = 0
		}
	}
	if it.l == nil {
		it.done = true
		return false
	}
	k := it.l.keys[it.i]
	if it.back && k < it.lo || !it.back && it.hi != "" && k >= it.hi {
		it.done = true
		return false
	}
	it.k, it.v = k, it.l.values[it.i]
	if it.back {
		it.i--
	} else {
		it.i++
	}
	return true
}

// Key returns the key at the current position.
func (it *Iter) Key() string { return it.k }

// Value returns the value at the current position.
func (it *Iter) Value() any { return it.v }

// Height returns the number of internal levels above the leaves.
func (t *Tree) Height() int { return t.height }

// check validates structural invariants; used by tests.
func (t *Tree) check() error {
	n := 0
	it := t.ScanAll()
	prev := ""
	first := true
	for it.Next() {
		if !first && it.Key() <= prev {
			return fmt.Errorf("btree: keys out of order: %q after %q", it.Key(), prev)
		}
		prev = it.Key()
		first = false
		n++
	}
	if n != t.size {
		return fmt.Errorf("btree: size %d but iterated %d keys", t.size, n)
	}
	return t.checkNode(t.root, t.height)
}

func (t *Tree) checkNode(n node, depth int) error {
	switch nd := n.(type) {
	case *leaf:
		if depth != 0 {
			return fmt.Errorf("btree: leaf at depth %d", depth)
		}
	case *internal:
		if len(nd.keys) != len(nd.children)-1 {
			return fmt.Errorf("btree: internal with %d keys, %d children", len(nd.keys), len(nd.children))
		}
		for _, c := range nd.children {
			if err := t.checkNode(c, depth-1); err != nil {
				return err
			}
		}
	}
	return nil
}
