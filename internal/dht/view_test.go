package dht

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"stash/internal/geohash"
)

func randGeohash(rng *rand.Rand) geohash.Hash {
	n := 1 + rng.Intn(7)
	b := make([]byte, n)
	for i := range b {
		b[i] = geohash.Base32[rng.Intn(32)]
	}
	return geohash.MustPack(string(b))
}

func TestNewRingFromNodesValidation(t *testing.T) {
	if _, err := NewRingFromNodes(nil, 2); err == nil {
		t.Error("empty node set accepted")
	}
	if _, err := NewRingFromNodes([]NodeID{1, 2, 1}, 2); err == nil {
		t.Error("duplicate node ids accepted")
	}
	r, err := NewRingFromNodes([]NodeID{7, 3, 11}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ns := r.Nodes()
	if len(ns) != 3 || ns[0] != 3 || ns[1] != 7 || ns[2] != 11 {
		t.Errorf("Nodes = %v, want sorted [3 7 11]", ns)
	}
}

func TestNewRingFromNodesMatchesNewRing(t *testing.T) {
	// The contiguous constructor must be a pure special case: same vnode
	// placement, so existing clusters route identically.
	a, _ := NewRing(9, 2)
	b, _ := NewRingFromNodes([]NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}, 2)
	for _, p := range a.Partitions() {
		if a.OwnerOfPartition(p) != b.OwnerOfPartition(p) {
			t.Fatalf("constructors disagree on owner of %q", p)
		}
	}
}

// TestOwnerIsTextHashOwner pins the owner assignment across the move to packed
// partition keys: a partition still lands where hash/fnv over its text, put
// through the finalizer and searched on the vnode ring, says it does.
func TestOwnerIsTextHashOwner(t *testing.T) {
	r, _ := NewRing(16, 2)
	textOwner := func(part string) NodeID {
		h := fnv.New64a()
		h.Write([]byte(part))
		x := finalize64(h.Sum64())
		i := sort.Search(len(r.vnodeKeys), func(i int) bool { return r.vnodeKeys[i] >= x })
		return r.vnodeOwners[i%len(r.vnodeOwners)]
	}
	for _, p := range r.Partitions() {
		if got, want := r.OwnerOfPartition(p), textOwner(p.String()); got != want {
			t.Fatalf("partition %v owned by %v, its text hashes to %v", p, got, want)
		}
	}
	for _, gh := range []string{"9", "z", "9q8y7zzz", "u4pruyd"} {
		part := gh
		if len(part) > 2 {
			part = part[:2]
		}
		if got, want := r.Owner(geohash.MustPack(gh)), textOwner(part); got != want {
			t.Errorf("Owner(%q) = %v, text partition %q hashes to %v", gh, got, part, want)
		}
	}
}

func TestViewEpochMonotonic(t *testing.T) {
	r, _ := NewRing(4, 2)
	v := NewView(r)
	if v.Epoch() != 1 {
		t.Fatalf("initial epoch = %d, want 1", v.Epoch())
	}
	v2, _, err := v.AddNode(4)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Epoch() != 2 {
		t.Errorf("epoch after join = %d, want 2", v2.Epoch())
	}
	v3, _, err := v2.RemoveNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Epoch() != 3 {
		t.Errorf("epoch after leave = %d, want 3", v3.Epoch())
	}
	if v.Epoch() != 1 || v2.Epoch() != 2 {
		t.Error("views are not immutable")
	}
}

func TestViewMembershipValidation(t *testing.T) {
	r, _ := NewRing(3, 2)
	v := NewView(r)
	if _, _, err := v.AddNode(1); err == nil {
		t.Error("duplicate join accepted")
	}
	if _, _, err := v.RemoveNode(9); err == nil {
		t.Error("leave of non-member accepted")
	}
	one, _ := NewRing(1, 2)
	if _, _, err := NewView(one).RemoveNode(0); err == nil {
		t.Error("removing the last node accepted")
	}
}

func TestDiffMatchesRingOwners(t *testing.T) {
	r, _ := NewRing(8, 2)
	v := NewView(r)
	v2, moves, err := v.AddNode(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("join moved no partitions")
	}
	moved := map[geohash.Hash]Move{}
	for _, m := range moves {
		if m.To != 8 {
			t.Errorf("join move %q goes to %v, not the joiner", m.Partition, m.To)
		}
		if m.From != r.OwnerOfPartition(m.Partition) {
			t.Errorf("move %q From=%v disagrees with old ring", m.Partition, m.From)
		}
		if m.To != v2.Ring().OwnerOfPartition(m.Partition) {
			t.Errorf("move %q To=%v disagrees with new ring", m.Partition, m.To)
		}
		moved[m.Partition] = m
	}
	// Partitions absent from the diff must not change owner.
	for _, p := range r.Partitions() {
		if _, ok := moved[p]; ok {
			continue
		}
		if r.OwnerOfPartition(p) != v2.Ring().OwnerOfPartition(p) {
			t.Fatalf("partition %q moved but is not in the diff", p)
		}
	}
}

// TestJoinMovementBound enforces the consistent-hashing contract that makes
// elastic membership viable at all (Ji et al.): a join may remap at most
// ~1/(n+1) of the key space, plus slack for vnode placement variance.
func TestJoinMovementBound(t *testing.T) {
	const samples = 20000
	for _, n := range []int{4, 8, 16} {
		old, _ := NewRing(n, 2)
		v, moves, err := NewView(old).AddNode(NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		next := v.Ring()
		rng := rand.New(rand.NewSource(int64(n)))
		remapped := 0
		for i := 0; i < samples; i++ {
			gh := randGeohash(rng)
			if old.Owner(gh) != next.Owner(gh) {
				remapped++
			}
		}
		frac := float64(remapped) / samples
		bound := 1.0/float64(n+1) + 0.10
		if frac > bound {
			t.Errorf("n=%d: join remapped %.3f of keys, bound %.3f", n, frac, bound)
		}
		// And the diff agrees: moved partitions / total within the same bound.
		if pf := float64(len(moves)) / float64(len(old.Partitions())); pf > bound {
			t.Errorf("n=%d: join moved %.3f of partitions, bound %.3f", n, pf, bound)
		}
	}
}

// TestLeaveMovesOnlyDepartedKeys: removing a node must remap exactly the keys
// it owned — incumbents keep every key they had.
func TestLeaveMovesOnlyDepartedKeys(t *testing.T) {
	const samples = 20000
	old, _ := NewRing(10, 2)
	const departing = NodeID(3)
	v, moves, err := NewView(old).RemoveNode(departing)
	if err != nil {
		t.Fatal(err)
	}
	next := v.Ring()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < samples; i++ {
		gh := randGeohash(rng)
		was, is := old.Owner(gh), next.Owner(gh)
		if was == departing {
			if is == departing {
				t.Fatalf("key %q still routed to departed node", gh)
			}
			continue
		}
		if was != is {
			t.Fatalf("key %q moved %v->%v though %v did not leave", gh, was, is, was)
		}
	}
	for _, m := range moves {
		if m.From != departing {
			t.Errorf("leave move %q has From=%v, want %v", m.Partition, m.From, departing)
		}
	}
}

func TestNodeIDStringCached(t *testing.T) {
	if NodeID(0).String() != "node-0" || NodeID(1023).String() != "node-1023" {
		t.Error("cached labels wrong")
	}
	if NodeID(4096).String() != "node-4096" {
		t.Error("fallback label wrong")
	}
	if NodeID(-1).String() != "node--1" {
		t.Errorf("negative label = %q", NodeID(-1).String())
	}
	if testing.AllocsPerRun(100, func() { _ = NodeID(7).String() }) != 0 {
		t.Error("cached NodeID.String allocates")
	}
}

func BenchmarkNewRing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRing(120, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViewAddNode(b *testing.B) {
	r, _ := NewRing(16, 2)
	v := NewView(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.AddNode(16); err != nil {
			b.Fatal(err)
		}
	}
}
