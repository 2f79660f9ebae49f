package dht

import (
	"testing"
	"testing/quick"

	"stash/internal/geohash"
)

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(0, 2); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewRing(-3, 2); err == nil {
		t.Error("negative nodes accepted")
	}
	if _, err := NewRing(4, 99); err == nil {
		t.Error("absurd prefix length accepted")
	}
	r, err := NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.PrefixLen() != DefaultPrefixLen {
		t.Errorf("default prefix length = %d", r.PrefixLen())
	}
}

func TestRingSizeAndNodes(t *testing.T) {
	r, err := NewRing(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 5 {
		t.Errorf("Size = %d", r.Size())
	}
	ns := r.Nodes()
	if len(ns) != 5 {
		t.Fatalf("Nodes = %v", ns)
	}
	for i, id := range ns {
		if int(id) != i {
			t.Errorf("node %d has id %v", i, id)
		}
	}
	// Returned slice must be a copy.
	ns[0] = 99
	if r.Nodes()[0] == 99 {
		t.Error("Nodes exposes internal slice")
	}
}

func TestPartitionKey(t *testing.T) {
	r, _ := NewRing(3, 2)
	if got := r.Partition(geohash.MustPack("9q8y7")); got != geohash.MustPack("9q") {
		t.Errorf("Partition(9q8y7) = %q", got)
	}
	if got := r.Partition(geohash.MustPack("9")); got != geohash.MustPack("9") {
		t.Errorf("short geohash partition = %q", got)
	}
	if got := r.Partition(geohash.MustPack("9q")); got != geohash.MustPack("9q") {
		t.Errorf("exact-length partition = %q", got)
	}
}

func TestOwnerDeterministicAcrossRings(t *testing.T) {
	// Zero-hop property: two independently built rings with identical
	// membership must agree on every owner, with no coordination.
	a, _ := NewRing(120, 2)
	b, _ := NewRing(120, 2)
	for _, gh := range []string{"9q8y7", "u4pru", "dr5rs", "000", "zzzz"} {
		if a.Owner(geohash.MustPack(gh)) != b.Owner(geohash.MustPack(gh)) {
			t.Errorf("rings disagree on owner of %q", gh)
		}
	}
}

func TestOwnerSamePrefixSameNode(t *testing.T) {
	r, _ := NewRing(16, 2)
	f := func(suffixSel []uint8) bool {
		gh := "9q"
		for _, s := range suffixSel {
			gh += string(geohash.Base32[int(s)%32])
			if len(gh) >= 8 {
				break
			}
		}
		return r.Owner(geohash.MustPack(gh)) == r.Owner(geohash.MustPack("9q"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOwnerInRange(t *testing.T) {
	r, _ := NewRing(7, 2)
	for _, p := range r.Partitions()[:100] {
		id := r.OwnerOfPartition(p)
		if id < 0 || int(id) >= r.Size() {
			t.Fatalf("owner of %q out of range: %v", p, id)
		}
	}
}

func TestPartitionsCount(t *testing.T) {
	r, _ := NewRing(3, 2)
	if got := len(r.Partitions()); got != 1024 {
		t.Errorf("2-char partitions = %d, want 32*32 = 1024", got)
	}
	r1, _ := NewRing(3, 1)
	if got := len(r1.Partitions()); got != 32 {
		t.Errorf("1-char partitions = %d, want 32", got)
	}
}

func TestPartitionsOfCoversAllDisjointly(t *testing.T) {
	r, _ := NewRing(6, 1)
	seen := map[geohash.Hash]NodeID{}
	total := 0
	for _, id := range r.Nodes() {
		for _, p := range r.PartitionsOf(id) {
			if prev, dup := seen[p]; dup {
				t.Fatalf("partition %q assigned to both %v and %v", p, prev, id)
			}
			seen[p] = id
			total++
		}
	}
	if total != 32 {
		t.Errorf("assigned partitions = %d, want 32", total)
	}
}

func TestBalanceAcrossNodes(t *testing.T) {
	// With 1024 partitions over 16 nodes and 64 vnodes each, no node should
	// be grossly over- or under-loaded.
	r, _ := NewRing(16, 2)
	counts := map[NodeID]int{}
	for _, p := range r.Partitions() {
		counts[r.OwnerOfPartition(p)]++
	}
	want := 1024 / 16
	for id, c := range counts {
		if c < want/4 || c > want*4 {
			t.Errorf("node %v owns %d partitions, expected near %d", id, c, want)
		}
	}
	if len(counts) != 16 {
		t.Errorf("only %d/16 nodes own partitions", len(counts))
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r, _ := NewRing(1, 2)
	for _, gh := range []string{"9q8y7", "u4", "z"} {
		if id := r.Owner(geohash.MustPack(gh)); id != 0 {
			t.Errorf("single-node ring routed %q to %v", gh, id)
		}
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeID(3).String() != "node-3" {
		t.Errorf("NodeID.String = %q", NodeID(3).String())
	}
}

func BenchmarkOwner(b *testing.B) {
	r, _ := NewRing(120, 2)
	gh := geohash.MustPack("9q8y7zzz")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Owner(gh)
	}
}
