package query

import (
	"testing"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/temporal"
)

// keySet materializes a query's footprint as a set, failing the test on any
// planning error.
func keySet(t *testing.T, q Query) map[cell.Key]bool {
	t.Helper()
	keys, err := q.Footprint()
	if err != nil {
		t.Fatalf("Footprint(%v): %v", q, err)
	}
	set := make(map[cell.Key]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}

// opposite finds the direction whose offsets negate d's, without assuming
// anything about the enum ordering.
func opposite(t *testing.T, d geohash.Direction) geohash.Direction {
	t.Helper()
	dLat, dLon := d.Offsets()
	for _, o := range geohash.Directions() {
		oLat, oLon := o.Offsets()
		if oLat == -dLat && oLon == -dLon {
			return o
		}
	}
	t.Fatalf("no opposite for %v", d)
	return d
}

// TestPanReverseRoundTrip checks the pan identity of the metamorphic suite in
// isolation: panning an interior query and panning back restores the exact
// box and therefore the exact footprint, for every compass direction.
func TestPanReverseRoundTrip(t *testing.T) {
	q := stateQuery()
	orig := keySet(t, q)
	for _, d := range geohash.Directions() {
		t.Run(d.String(), func(t *testing.T) {
			back := q.Pan(d, 0.4).Pan(opposite(t, d), 0.4)
			if !back.Equal(q) {
				t.Fatalf("pan %v then back changed the query: %v -> %v", d, q, back)
			}
			got := keySet(t, back)
			if len(got) != len(orig) {
				t.Fatalf("footprint size changed: %d -> %d", len(orig), len(got))
			}
			for k := range orig {
				if !got[k] {
					t.Fatalf("footprint lost key %v after pan round trip", k)
				}
			}
		})
	}
}

// TestPanFootprintOverlap asserts the continuity property the differential
// harness relies on: a fractional pan keeps part of the previous footprint,
// so consecutive frames share cells whose aggregates must agree.
func TestPanFootprintOverlap(t *testing.T) {
	tests := []struct {
		dir  geohash.Direction
		frac float64
	}{
		{geohash.North, 0.25},
		{geohash.East, 0.25},
		{geohash.SouthWest, 0.3},
		{geohash.West, 0.5},
	}
	q := stateQuery()
	before := keySet(t, q)
	for _, tc := range tests {
		t.Run(tc.dir.String(), func(t *testing.T) {
			after := keySet(t, q.Pan(tc.dir, tc.frac))
			shared := 0
			for k := range after {
				if before[k] {
					shared++
				}
			}
			if shared == 0 {
				t.Fatalf("pan %v by %.2f shares no footprint with the origin query", tc.dir, tc.frac)
			}
		})
	}
}

// TestDrillRollUpFootprintAlgebra drives the spatial and temporal zoom
// operators through a table and asserts two algebraic facts: the round trip
// is the identity on the query, and every fine-footprint key refines some
// coarse-footprint key (its spatial prefix / temporal parent is present).
func TestDrillRollUpFootprintAlgebra(t *testing.T) {
	tests := []struct {
		name  string
		down  func(Query) (Query, bool)
		up    func(Query) (Query, bool)
		check func(t *testing.T, fine cell.Key, coarseSet map[cell.Key]bool, coarse Query)
	}{
		{
			name: "spatial",
			down: Query.DrillDown,
			up:   Query.RollUp,
			check: func(t *testing.T, fine cell.Key, coarseSet map[cell.Key]bool, coarse Query) {
				parent := cell.Key{Geohash: fine.Geohash.Prefix(coarse.SpatialRes), Time: fine.Time}
				if !coarseSet[parent] {
					t.Fatalf("fine key %v has no parent %v in coarse footprint", fine, parent)
				}
			},
		},
		{
			name: "temporal",
			down: Query.DrillDownTemporal,
			up:   Query.RollUpTemporal,
			check: func(t *testing.T, fine cell.Key, coarseSet map[cell.Key]bool, coarse Query) {
				start, err := fine.Time.Start()
				if err != nil {
					t.Fatalf("fine label %v: %v", fine.Time, err)
				}
				parent := cell.Key{Geohash: fine.Geohash, Time: temporal.At(start, coarse.TemporalRes)}
				if !coarseSet[parent] {
					t.Fatalf("fine key %v has no parent %v in coarse footprint", fine, parent)
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			coarse := stateQuery()
			fine, ok := tc.down(coarse)
			if !ok {
				t.Fatalf("%s drill-down refused at a mid-range resolution", tc.name)
			}
			back, ok := tc.up(fine)
			if !ok || !back.Equal(coarse) {
				t.Fatalf("%s round trip lost the query: %v -> %v -> %v", tc.name, coarse, fine, back)
			}
			coarseSet := keySet(t, coarse)
			for fk := range keySet(t, fine) {
				tc.check(t, fk, coarseSet, coarse)
			}
		})
	}
}

// TestSliceTimeFootprint checks slicing at each temporal resolution: the
// sliced footprint is exactly the spatial cover crossed with the single
// chosen label — no other time bins survive.
func TestSliceTimeFootprint(t *testing.T) {
	tests := []struct {
		label string
		res   temporal.Resolution
	}{
		{"2015", temporal.Year},
		{"2015-02", temporal.Month},
		{"2015-02-02", temporal.Day},
		{"2015-02-02T15", temporal.Hour},
	}
	base := stateQuery()
	for _, tc := range tests {
		t.Run(tc.label, func(t *testing.T) {
			l, err := temporal.Parse(tc.label, tc.res)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.label, err)
			}
			sliced, err := base.SliceTime(l)
			if err != nil {
				t.Fatalf("SliceTime(%v): %v", l, err)
			}
			if sliced.TemporalRes != tc.res {
				t.Fatalf("slice set resolution %v, want %v", sliced.TemporalRes, tc.res)
			}
			ghs, err := geohash.Cover(base.Box, base.SpatialRes)
			if err != nil {
				t.Fatalf("Cover: %v", err)
			}
			got := keySet(t, sliced)
			if len(got) != len(ghs) {
				t.Fatalf("sliced footprint has %d keys, want %d (one per tile)", len(got), len(ghs))
			}
			for k := range got {
				if k.Time != l {
					t.Fatalf("sliced footprint leaked label %v, want only %v", k.Time, l)
				}
			}
		})
	}
}

// TestDiceFootprintIsCrossProduct checks the general dicing operator: the
// footprint of a diced query is exactly cover(box) x cover(range).
func TestDiceFootprintIsCrossProduct(t *testing.T) {
	tests := []struct {
		name string
		box  geohash.Box
		tr   temporal.Range
	}{
		{
			name: "county-day",
			box:  geohash.Box{MinLat: 35, MaxLat: 35.6, MinLon: -98, MaxLon: -96.8},
			tr:   temporal.DayRange(2015, 2, 3),
		},
		{
			name: "strip-two-days",
			box:  geohash.Box{MinLat: 34, MaxLat: 34.2, MinLon: -101, MaxLon: -95},
			tr: temporal.Range{
				Start: temporal.DayRange(2015, 2, 4).Start,
				End:   temporal.DayRange(2015, 2, 5).End,
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			q := stateQuery().Dice(tc.box, tc.tr)
			if err := q.Validate(); err != nil {
				t.Fatalf("diced query invalid: %v", err)
			}
			ghs, err := geohash.CoverHashes(tc.box, q.SpatialRes)
			if err != nil {
				t.Fatalf("Cover(box): %v", err)
			}
			labels, err := tc.tr.Cover(q.TemporalRes)
			if err != nil {
				t.Fatalf("Cover(time): %v", err)
			}
			got := keySet(t, q)
			if len(got) != len(ghs)*len(labels) {
				t.Fatalf("footprint has %d keys, want %d x %d", len(got), len(ghs), len(labels))
			}
			for _, gh := range ghs {
				for _, l := range labels {
					k := cell.Key{Geohash: gh, Time: l}
					if !got[k] {
						t.Fatalf("cross product key %v missing from footprint", k)
					}
				}
			}
		})
	}
}

// TestDiceShrinkFootprintNests checks descending iterative dicing at the
// footprint level: each shrink step's spatial tiles are a subset of the
// previous step's, so a session zooming into a hotspot only ever re-reads
// cells it has already seen.
func TestDiceShrinkFootprintNests(t *testing.T) {
	fractions := []float64{0.2, 0.2, 0.5}
	q := stateQuery()
	prev := keySet(t, q)
	for i, f := range fractions {
		q = q.DiceShrink(f)
		if err := q.Validate(); err != nil {
			t.Fatalf("shrink step %d produced invalid query: %v", i, err)
		}
		cur := keySet(t, q)
		if len(cur) == 0 {
			t.Fatalf("shrink step %d emptied the footprint", i)
		}
		for k := range cur {
			if !prev[k] {
				t.Fatalf("shrink step %d introduced key %v outside the previous footprint", i, k)
			}
		}
		prev = cur
	}
}
