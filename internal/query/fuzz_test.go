package query

import (
	"testing"
	"time"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/temporal"
)

// fuzzQuery maps raw fuzz values onto a Query without sanitizing them into
// validity: Validate is part of the system under test, so out-of-range
// boxes, inverted ranges, and absurd resolutions must all flow through it.
// Only the time span is clamped (to ~2 years), because Footprint/Validate
// themselves walk the temporal cover label by label.
func fuzzQuery(minLat, minLon, dLat, dLon float64, startSec, durSec int64, sres int, tresRaw uint8) Query {
	const maxDur = 750 * 86400
	d := durSec % maxDur
	if d < 0 {
		d = -d
	}
	start := time.Unix(startSec%(400*365*86400), 0).UTC()
	return Query{
		Box: geohash.Box{
			MinLat: minLat, MaxLat: minLat + dLat,
			MinLon: minLon, MaxLon: minLon + dLon,
		},
		Time:        temporal.Range{Start: start, End: start.Add(time.Duration(d) * time.Second)},
		SpatialRes:  sres,
		TemporalRes: temporal.Resolution(tresRaw % 8), // includes invalid values
	}
}

// FuzzQueryFootprint is the parser/planner fuzz gate: for arbitrary inputs,
// Validate must never panic, and any query it accepts must plan cleanly —
// Footprint succeeds, its length matches FootprintCount and stays within
// MaxFootprint, and every key is well-formed at exactly the query's
// resolutions with no duplicates.
func FuzzQueryFootprint(f *testing.F) {
	f.Add(33.0, -103.0, 4.0, 8.0, int64(1422835200), int64(86400), 4, uint8(2))
	f.Add(35.0, -98.0, 0.6, 1.2, int64(1422835200), int64(3600), 5, uint8(3))
	f.Add(-90.0, -180.0, 180.0, 360.0, int64(0), int64(86400), 1, uint8(0))
	f.Add(35.0, -98.0, -1.0, 1.0, int64(1422835200), int64(86400), 4, uint8(2)) // inverted box
	f.Add(35.0, -98.0, 0.5, 0.5, int64(1422835200), int64(-5), 4, uint8(2))     // empty range
	f.Add(35.0, -98.0, 0.5, 0.5, int64(1422835200), int64(86400), 13, uint8(2)) // res too fine
	f.Add(89.9, 179.9, 0.5, 0.5, int64(1422835200), int64(86400), 3, uint8(1))  // pole/antimeridian edge
	f.Fuzz(func(t *testing.T, minLat, minLon, dLat, dLon float64, startSec, durSec int64, sres int, tresRaw uint8) {
		q := fuzzQuery(minLat, minLon, dLat, dLon, startSec, durSec, sres, tresRaw)
		if err := q.Validate(); err != nil {
			return // rejection is fine; panics and accepted-but-unplannable are not
		}
		n, err := q.FootprintCount()
		if err != nil {
			t.Fatalf("validated query has no footprint count: %v\n%v", err, q)
		}
		if n <= 0 || n > MaxFootprint {
			t.Fatalf("validated query has footprint count %d (limit %d)\n%v", n, MaxFootprint, q)
		}
		keys, err := q.Footprint()
		if err != nil {
			t.Fatalf("validated query fails to plan: %v\n%v", err, q)
		}
		if len(keys) != n {
			t.Fatalf("Footprint len %d != FootprintCount %d\n%v", len(keys), n, q)
		}
		seen := make(map[cell.Key]bool, len(keys))
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("duplicate footprint key %v\n%v", k, q)
			}
			seen[k] = true
			if k.SpatialRes() != q.SpatialRes || k.TemporalRes() != q.TemporalRes {
				t.Fatalf("key %v at level (%d,%v), query wants (%d,%v)",
					k, k.SpatialRes(), k.TemporalRes(), q.SpatialRes, q.TemporalRes)
			}
			if k.Level() != q.Level() {
				t.Fatalf("key level %d != query level %d for %v", k.Level(), q.Level(), k)
			}
			if _, err := cell.KeyOf(k.Geohash, k.Time); err != nil {
				t.Fatalf("footprint emitted malformed key %v: %v", k, err)
			}
		}
	})
}

// FuzzOLAPClosure checks that the navigation operators are closed over valid
// queries: applying any operator to a valid query yields a query that either
// validates or is rejected cleanly — and the spatial round trips restore the
// original query exactly.
func FuzzOLAPClosure(f *testing.F) {
	f.Add(33.0, -103.0, 4.0, 8.0, uint8(1), 0.3)
	f.Add(35.0, -98.0, 0.6, 1.2, uint8(5), 0.8)
	f.Add(-89.0, -179.0, 2.0, 2.0, uint8(0), 0.5)
	f.Fuzz(func(t *testing.T, minLat, minLon, dLat, dLon float64, dirRaw uint8, frac float64) {
		q := fuzzQuery(minLat, minLon, dLat, dLon, 1422835200, 86400, 4, 2)
		if q.Validate() != nil {
			return
		}
		if frac < 0 || frac != frac {
			frac = 0.3
		} else if frac > 1 {
			frac = 1
		}
		panned := q.Pan(geohash.Direction(dirRaw%8), frac)
		if err := panned.Validate(); err != nil {
			t.Fatalf("pan broke a valid query: %v\n%v -> %v", err, q, panned)
		}
		if down, ok := q.DrillDown(); ok {
			up, ok2 := down.RollUp()
			if !ok2 || !up.Equal(q) {
				t.Fatalf("drill/rollup round trip lost the query: %v -> %v -> %v", q, down, up)
			}
		}
		if dq := q.DiceShrink(frac * 0.9); dq.Validate() != nil && frac*0.9 > 0 {
			t.Fatalf("dice-shrink broke a valid query: %v -> %v", q, dq)
		}
	})
}
