package stash

import (
	"testing"

	"stash/internal/cell"
	"stash/internal/geohash"
)

func TestExtractPartitionsMovesOnlyMatchingFineCells(t *testing.T) {
	g := newTestGraph()
	moved := k("9q80") // fine, in moved partition "9q"
	stays := k("dr50") // fine, partition "dr"
	coarse := k("9")   // coarser than the prefix; never extracted
	exact := k("9q")   // exactly prefix-length: single-partition, extracted
	g.Put(resultWith(moved, stays, coarse, exact))

	res := g.ExtractPartitions(2, map[geohash.Hash]bool{geohash.MustPack("9q"): true})
	if _, ok := res.Cells[moved]; !ok {
		t.Error("fine cell in moved partition not extracted")
	}
	if _, ok := res.Cells[exact]; !ok {
		t.Error("prefix-length cell in moved partition not extracted")
	}
	if _, ok := res.Cells[stays]; ok {
		t.Error("cell outside moved partitions extracted")
	}
	if _, ok := res.Cells[coarse]; ok {
		t.Error("coarse cell extracted; it is a per-node partial")
	}

	// Extracted cells are gone from the shard — the old owner misses
	// honestly; untouched cells still hit.
	found, missing := g.GetBatch([]cell.Key{moved, exact, stays, coarse})
	if len(missing) != 2 || found.Len() != 2 {
		t.Fatalf("post-extract: found=%d missing=%d, want 2/2", found.Len(), len(missing))
	}
	if !g.PLM().Present(stays) || g.PLM().Present(moved) {
		t.Error("PLM presence not maintained by extraction")
	}
}

func TestExtractPartitionsSkipsStaleCells(t *testing.T) {
	// A cell invalidated by an ingest must not be shipped: inserting it on
	// the new owner would re-mark it fresh, laundering stale data. It is
	// still removed from the old owner.
	g := newTestGraph()
	fresh := k("9q80")
	g.Put(resultWith(fresh))
	g.PLM().MarkStale(BlockRef{Prefix: "9q80", Day: day})

	res := g.ExtractPartitions(2, map[geohash.Hash]bool{geohash.MustPack("9q"): true})
	if res.Len() != 0 {
		t.Fatalf("stale cell shipped: %d cells", res.Len())
	}
	if g.PLM().Present(fresh) {
		t.Error("stale cell still resident after extraction")
	}
}

func TestExtractPartitionsShipsNegativeCache(t *testing.T) {
	// Empty summaries (negative cache) migrate too: on the new owner they
	// keep sparse regions from re-scanning disk.
	g := newTestGraph()
	empty := k("9q80")
	r := resultWith()
	r.Add(empty, cell.Summary{})
	g.Put(r)

	res := g.ExtractPartitions(2, map[geohash.Hash]bool{geohash.MustPack("9q"): true})
	s, ok := res.Cells[empty]
	if !ok {
		t.Fatal("negative-cache entry not extracted")
	}
	if !s.Empty() {
		t.Fatal("negative-cache entry extracted non-empty")
	}
}

func TestDropCoarsePartialsDropsOnlyExtendingCells(t *testing.T) {
	g := newTestGraph()
	over := k("9")   // coarse, extends into changed partition "9q"
	other := k("d")  // coarse, no changed partition below it
	fine := k("9q8") // finer than prefix; DropCoarsePartials never touches
	g.Put(resultWith(over, other, fine))

	dropped := g.DropCoarsePartials(2, map[geohash.Hash]bool{geohash.MustPack("9q"): true})
	if dropped != 1 {
		t.Fatalf("dropped %d coarse cells, want 1", dropped)
	}
	found, missing := g.GetBatch([]cell.Key{over, other, fine})
	if len(missing) != 1 || missing[0] != over {
		t.Fatalf("post-drop: missing=%v, want only %v", missing, over)
	}
	if found.Len() != 2 {
		t.Fatalf("post-drop: found=%d, want 2", found.Len())
	}
}

func TestDropCoarsePartialsEmptyChangeSet(t *testing.T) {
	g := newTestGraph()
	g.Put(resultWith(k("9")))
	if n := g.DropCoarsePartials(2, nil); n != 0 {
		t.Fatalf("dropped %d with empty change set", n)
	}
}
