package main

import (
	"testing"

	"stash/internal/geohash"
)

// A cold query hands its cells to the population pool off the response path,
// so an immediate repeat can race the workers and read disk again (the
// stashbench -explain 0/576 warm pass). After quiesce the repeat must be
// served without a single disk cell.
func TestQuiesceMakesTheRepeatWarm(t *testing.T) {
	e, err := newEnv(0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.c.Stop()
	cl := e.c.Client()
	for i := 0; i < 8; i++ {
		lon := -170 + 40*float64(i)
		q := baseQuery(geohash.Box{MinLat: 10, MaxLat: 14, MinLon: lon, MaxLon: lon + 8})
		if _, err := cl.Query(q); err != nil {
			t.Fatal(err)
		}
		if err := quiesce(e.c); err != nil {
			t.Fatal(err)
		}
		before := e.c.TotalStats()
		if before.DiskCells == 0 || before.PopulatedCells != before.DiskCells {
			t.Fatalf("box %d: after quiesce %d disk cells, %d populated", i, before.DiskCells, before.PopulatedCells)
		}
		if _, err := cl.Query(q); err != nil {
			t.Fatal(err)
		}
		after := e.c.TotalStats()
		if d := after.DiskCells - before.DiskCells; d != 0 {
			t.Errorf("box %d: the repeat read %d cells from disk", i, d)
		}
		if d := after.BlocksRead - before.BlocksRead; d != 0 {
			t.Errorf("box %d: the repeat read %d blocks", i, d)
		}
	}
}
