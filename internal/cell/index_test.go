package cell

import (
	"math/rand"
	"testing"

	"stash/internal/geohash"
	"stash/internal/temporal"
)

// indexKey spreads i over geohashes and hours so keys differ in both halves.
func indexKey(i int) Key {
	if i == 0 {
		return Key{} // not a valid cell, but an index must hold any key
	}
	return Key{
		Geohash: geohash.EncodeHash(float64(i%170)-85, float64(i%350)-175, 1+i%MaxSpatialPrecision),
		Time:    temporal.Label{Res: temporal.Hour, Bucket: int32(i / 7)},
	}
}

// TestIndexMatchesMap drives an Index and a Go map with the same seeded
// inserts, overwrites, deletes and lookups; they must agree after every step.
// Deleting is the delicate part: the backward shift has to keep every key
// left in a probe run reachable, including runs that wrap the table's end.
func TestIndexMatchesMap(t *testing.T) {
	for _, universe := range []int{8, 64, 3000} {
		rng := rand.New(rand.NewSource(int64(universe)))
		var ix Index
		ref := map[Key]int32{}
		for step := 0; step < 20000; step++ {
			k := indexKey(rng.Intn(universe))
			switch op := rng.Intn(10); {
			case op < 4:
				row := int32(rng.Intn(1 << 20))
				got, inserted := ix.GetOrInsert(k, row)
				want, present := ref[k]
				if !present {
					ref[k], want = row, row
				}
				if inserted == present || got != want {
					t.Fatalf("step %d: GetOrInsert(%v) = %d,%v; want %d,%v", step, k, got, inserted, want, !present)
				}
			case op < 5:
				if _, present := ref[k]; present {
					row := int32(rng.Intn(1 << 20))
					ix.Set(k, row)
					ref[k] = row
				}
			case op < 8:
				got, ok := ix.Delete(k)
				want, present := ref[k]
				delete(ref, k)
				if ok != present || ok && got != want {
					t.Fatalf("step %d: Delete(%v) = %d,%v; want %d,%v", step, k, got, ok, want, present)
				}
			default:
				got, ok := ix.Get(k)
				want, present := ref[k]
				if ok != present || ok && got != want {
					t.Fatalf("step %d: Get(%v) = %d,%v; want %d,%v", step, k, got, ok, want, present)
				}
			}
			if ix.Len() != len(ref) {
				t.Fatalf("step %d: Len = %d, want %d", step, ix.Len(), len(ref))
			}
		}
		for k, want := range ref {
			if got, ok := ix.Get(k); !ok || got != want {
				t.Fatalf("universe %d: %v lost (got %d,%v want %d)", universe, k, got, ok, want)
			}
		}
		live := 0
		for _, s := range ix.slots {
			if s.ref != 0 {
				live++
			}
		}
		if live != len(ref) {
			t.Fatalf("universe %d: %d occupied slots for %d keys", universe, live, len(ref))
		}
	}
}

// TestIndexResetKeepsGrowthButNotGiants: a reused index keeps the table an
// ordinary use grew (no reallocation per reuse) and sheds what one far larger
// use left behind.
func TestIndexResetKeepsGrowthButNotGiants(t *testing.T) {
	var ix Index
	ix.Reset(10)
	for i := 0; i < 40; i++ {
		ix.GetOrInsert(indexKey(i), int32(i))
	}
	grown := len(ix.slots)
	ix.Reset(10)
	if ix.Len() != 0 || len(ix.slots) != grown {
		t.Fatalf("after reset: len %d, %d slots; want 0 and the %d it grew to", ix.Len(), len(ix.slots), grown)
	}
	if _, ok := ix.Get(indexKey(3)); ok {
		t.Fatal("reset left a key behind")
	}
	for i := 0; i < 5000; i++ {
		ix.GetOrInsert(indexKey(i), int32(i))
	}
	ix.Reset(10)
	if len(ix.slots) > 4*slotsFor(10) {
		t.Fatalf("reset kept %d slots for a 10-key use", len(ix.slots))
	}
	var reserved Index
	reserved.Reserve(200)
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 200; i++ {
			reserved.GetOrInsert(indexKey(i), int32(i))
		}
	}); allocs != 0 || reserved.Len() != 200 {
		t.Fatalf("filling a table reserved for 200 keys: %d held, %.0f allocations", reserved.Len(), allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		ix.Reset(10)
		for i := 0; i < 10; i++ {
			ix.GetOrInsert(indexKey(i), 0)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state reuse allocates %.0f objects", allocs)
	}
}
