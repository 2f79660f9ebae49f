package query

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/temporal"
)

// stateQuery returns a state-sized query as in the paper's setup: spatial
// extent (4°, 8°), one day, resolutions (4, Day).
func stateQuery() Query {
	return Query{
		Box:         geohash.Box{MinLat: 33, MaxLat: 37, MinLon: -103, MaxLon: -95},
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  4,
		TemporalRes: temporal.Day,
	}
}

func TestValidate(t *testing.T) {
	q := stateQuery()
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}

	bad := q
	bad.Box = geohash.Box{MinLat: 5, MaxLat: 1, MinLon: 0, MaxLon: 1}
	if bad.Validate() == nil {
		t.Error("inverted box accepted")
	}

	bad = q
	bad.Time = temporal.Range{}
	if bad.Validate() == nil {
		t.Error("empty time range accepted")
	}

	bad = q
	bad.SpatialRes = 0
	if bad.Validate() == nil {
		t.Error("spatial res 0 accepted")
	}
	bad.SpatialRes = cell.MaxSpatialPrecision + 1
	if bad.Validate() == nil {
		t.Error("over-max spatial res accepted")
	}

	bad = q
	bad.TemporalRes = temporal.Resolution(9)
	if bad.Validate() == nil {
		t.Error("bad temporal res accepted")
	}
}

func TestValidateFootprintLimit(t *testing.T) {
	q := Query{
		Box:         geohash.World,
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  8,
		TemporalRes: temporal.Hour,
	}
	if q.Validate() == nil {
		t.Error("globe-at-precision-8 query must exceed the footprint limit")
	}
}

func TestFootprint(t *testing.T) {
	q := stateQuery()
	keys, err := q.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.FootprintCount()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Errorf("Footprint len %d != FootprintCount %d", len(keys), n)
	}
	if n == 0 {
		t.Fatal("state query has empty footprint")
	}
	for _, k := range keys {
		if k.SpatialRes() != 4 || k.TemporalRes() != temporal.Day {
			t.Fatalf("footprint key %v has wrong resolutions", k)
		}
		if k.Time.String() != "2015-02-02" {
			t.Fatalf("footprint key %v outside time range", k)
		}
	}
}

func TestFootprintMultiDay(t *testing.T) {
	q := stateQuery()
	r, _ := temporal.NewRange(q.Time.Start, q.Time.Start.AddDate(0, 0, 3))
	q.Time = r
	n3, _ := q.FootprintCount()
	q1 := stateQuery()
	n1, _ := q1.FootprintCount()
	if n3 != 3*n1 {
		t.Errorf("3-day footprint = %d, want 3x single day %d", n3, n1)
	}
}

func TestLevelMatchesCellLevel(t *testing.T) {
	q := stateQuery()
	keys, _ := q.Footprint()
	for _, k := range keys[:min(5, len(keys))] {
		if k.Level() != q.Level() {
			t.Errorf("key level %d != query level %d", k.Level(), q.Level())
		}
	}
}

func TestPanPreservesExtent(t *testing.T) {
	q := stateQuery()
	for _, d := range geohash.Directions() {
		p := q.Pan(d, 0.25)
		if math.Abs(p.Box.Width()-q.Box.Width()) > 1e-9 ||
			math.Abs(p.Box.Height()-q.Box.Height()) > 1e-9 {
			t.Errorf("pan %v changed extent: %v -> %v", d, q.Box, p.Box)
		}
		if p.Box == q.Box {
			t.Errorf("pan %v did not move the box", d)
		}
	}
}

func TestPanDirectionSigns(t *testing.T) {
	q := stateQuery()
	n := q.Pan(geohash.North, 0.1)
	if n.Box.MinLat <= q.Box.MinLat {
		t.Error("north pan should increase latitude")
	}
	e := q.Pan(geohash.East, 0.1)
	if e.Box.MinLon <= q.Box.MinLon {
		t.Error("east pan should increase longitude")
	}
	sw := q.Pan(geohash.SouthWest, 0.1)
	if sw.Box.MinLat >= q.Box.MinLat || sw.Box.MinLon >= q.Box.MinLon {
		t.Error("southwest pan should decrease both")
	}
}

func TestPanOverlapFraction(t *testing.T) {
	// A 10% pan must leave a 90% overlap in the panned dimension; this is
	// the property the paper's caching benefit rests on.
	q := stateQuery()
	p := q.Pan(geohash.East, 0.10)
	inter, ok := q.Box.Intersection(p.Box)
	if !ok {
		t.Fatal("panned box does not overlap original")
	}
	gotFrac := inter.Area() / q.Box.Area()
	if math.Abs(gotFrac-0.90) > 1e-9 {
		t.Errorf("overlap fraction after 10%% pan = %v, want 0.90", gotFrac)
	}
}

func TestPanClampsAtGlobeEdge(t *testing.T) {
	q := stateQuery()
	q.Box = geohash.Box{MinLat: 80, MaxLat: 88, MinLon: 0, MaxLon: 8}
	p := q.Pan(geohash.North, 1.0)
	if p.Box.MaxLat > 90 || !p.Box.Valid() {
		t.Errorf("north pan escaped globe: %v", p.Box)
	}
	if math.Abs(p.Box.Height()-q.Box.Height()) > 1e-9 {
		t.Error("clamped pan should preserve extent")
	}
	q.Box = geohash.Box{MinLat: 0, MaxLat: 5, MinLon: 170, MaxLon: 178}
	p = q.Pan(geohash.East, 2.0)
	if p.Box.MaxLon > 180 || !p.Box.Valid() {
		t.Errorf("east pan escaped globe: %v", p.Box)
	}
}

func TestDiceShrinkExpand(t *testing.T) {
	q := stateQuery()
	s := q.DiceShrink(0.20)
	if got := s.Box.Area() / q.Box.Area(); math.Abs(got-0.80) > 1e-9 {
		t.Errorf("shrink 20%%: area ratio = %v", got)
	}
	cLat0, cLon0 := q.Box.Center()
	cLat1, cLon1 := s.Box.Center()
	if math.Abs(cLat0-cLat1) > 1e-9 || math.Abs(cLon0-cLon1) > 1e-9 {
		t.Error("dice must preserve center")
	}
	if !q.Box.ContainsBox(s.Box) {
		t.Error("shrunk box must nest inside original")
	}

	e := q.DiceExpand(0.25)
	if got := e.Box.Area() / q.Box.Area(); math.Abs(got-1.25) > 1e-9 {
		t.Errorf("expand 25%%: area ratio = %v", got)
	}
	if !e.Box.ContainsBox(q.Box) {
		t.Error("expanded box must contain original")
	}
}

func TestDiceShrinkSequenceNests(t *testing.T) {
	// The paper's descending iterative dicing: 5 queries, each 20% smaller.
	// Every query after the first must be fully contained in the first.
	q := stateQuery()
	cur := q
	for i := 0; i < 4; i++ {
		next := cur.DiceShrink(0.20)
		if !cur.Box.ContainsBox(next.Box) {
			t.Fatalf("step %d: %v not nested in %v", i, next.Box, cur.Box)
		}
		cur = next
	}
	if got := cur.Box.Area() / q.Box.Area(); math.Abs(got-math.Pow(0.8, 4)) > 1e-9 {
		t.Errorf("area after 4 shrinks = %v of original", got)
	}
}

func TestDiceIgnoresNonPositiveFactor(t *testing.T) {
	q := stateQuery()
	if got := q.DiceShrink(1.0); got.Box != q.Box {
		t.Error("shrink by 100% should be a no-op (degenerate)")
	}
	if got := q.DiceShrink(1.5); got.Box != q.Box {
		t.Error("shrink beyond 100% should be a no-op")
	}
}

func TestZoomLadder(t *testing.T) {
	q := stateQuery()
	q.SpatialRes = 2
	steps := 0
	for {
		next, ok := q.DrillDown()
		if !ok {
			break
		}
		if next.SpatialRes != q.SpatialRes+1 {
			t.Fatalf("drill-down jumped from %d to %d", q.SpatialRes, next.SpatialRes)
		}
		q = next
		steps++
	}
	if q.SpatialRes != cell.MaxSpatialPrecision {
		t.Errorf("drill-down stopped at %d", q.SpatialRes)
	}
	if steps != cell.MaxSpatialPrecision-2 {
		t.Errorf("steps = %d", steps)
	}
	for {
		next, ok := q.RollUp()
		if !ok {
			break
		}
		q = next
	}
	if q.SpatialRes != 1 {
		t.Errorf("roll-up stopped at %d", q.SpatialRes)
	}
}

func TestTemporalZoom(t *testing.T) {
	q := stateQuery()
	q.TemporalRes = temporal.Month
	d, ok := q.DrillDownTemporal()
	if !ok || d.TemporalRes != temporal.Day {
		t.Errorf("temporal drill-down: %v %v", d.TemporalRes, ok)
	}
	u, ok := q.RollUpTemporal()
	if !ok || u.TemporalRes != temporal.Year {
		t.Errorf("temporal roll-up: %v %v", u.TemporalRes, ok)
	}
	q.TemporalRes = temporal.Hour
	if _, ok := q.DrillDownTemporal(); ok {
		t.Error("drill below Hour accepted")
	}
	q.TemporalRes = temporal.Year
	if _, ok := q.RollUpTemporal(); ok {
		t.Error("roll above Year accepted")
	}
}

func TestSliceTime(t *testing.T) {
	q := stateQuery()
	s, err := q.SliceTime(temporal.MustParse("2015-03", temporal.Month))
	if err != nil {
		t.Fatal(err)
	}
	if s.TemporalRes != temporal.Month {
		t.Errorf("slice temporal res = %v", s.TemporalRes)
	}
	labels, err := s.Time.Cover(temporal.Month)
	if err != nil || len(labels) != 1 || labels[0].String() != "2015-03" {
		t.Errorf("sliced range covers %v", labels)
	}
	if _, err := q.SliceTime(temporal.Label{Res: 9}); err == nil {
		t.Error("slice on invalid label accepted")
	}
}

func TestDice(t *testing.T) {
	q := stateQuery()
	nb := geohash.Box{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}
	nr := temporal.DayRange(2015, 3, 1)
	d := q.Dice(nb, nr)
	if d.Box != nb || d.Time != nr {
		t.Error("dice did not apply constraints")
	}
	if d.SpatialRes != q.SpatialRes || d.TemporalRes != q.TemporalRes {
		t.Error("dice must preserve resolutions")
	}
}

func TestResultAddMerge(t *testing.T) {
	k1 := cell.MustKey("9q8y", "2015-02-02", temporal.Day)
	k2 := cell.MustKey("9q8z", "2015-02-02", temporal.Day)

	s1 := cell.Summary{}
	s1.Observe(cell.Temperature, 20)
	s2 := cell.Summary{}
	s2.Observe(cell.Temperature, 30)

	r := NewResult()
	r.Add(k1, s1)
	r.Add(k1, s2)
	r.Add(k2, s2)
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	if got := r.Cells[k1].Count("temperature"); got != 2 {
		t.Errorf("k1 count = %d", got)
	}
	if r.TotalCount("temperature") != 3 {
		t.Errorf("TotalCount = %d", r.TotalCount("temperature"))
	}

	other := NewResult()
	s3 := cell.Summary{}
	s3.Observe(cell.Temperature, -5)
	other.Add(k1, s3)
	r.Merge(other)
	if got := r.Cells[k1].Count("temperature"); got != 3 {
		t.Errorf("after merge k1 count = %d", got)
	}
	if st := r.Cells[k1].Stats[cell.Temperature]; st.Min != -5 || st.Max != 30 {
		t.Errorf("merged stat = %+v", st)
	}
}

func TestResultAddMergeDoesNotMutateSources(t *testing.T) {
	// Summaries are values, so a result cannot reach the ones it was handed;
	// what IS shared is the histogram sets beside them. When Add merges a
	// second cell under the same key, neither source set may be mutated —
	// both could be held by caches or other results.
	k := cell.MustKey("9q8y", "2015-02-02", temporal.Day)
	spec := cell.HistogramSpec{Lo: 0, Hi: 100, Buckets: 4}
	mk := func(v float64) (cell.Summary, *cell.Hists) {
		var s cell.Summary
		h := new(cell.Hists)
		s.Observe(cell.Snow, v)
		if err := h.Observe(cell.Snow, v, spec); err != nil {
			t.Fatal(err)
		}
		return s, h
	}
	s1, h1 := mk(1)
	s2, h2 := mk(10)

	r := NewResult()
	r.AddCell(k, s1, h1)
	r.AddCell(k, s2, h2) // merge path: must fold into a clone, not h1 or h2
	if got := r.Cells[k].Count("snow"); got != 2 {
		t.Errorf("merged count = %d, want 2", got)
	}
	if got := r.Hists[k].Hist("snow"); got == nil || got.Total() != 2 {
		t.Errorf("merged histogram = %+v, want total 2", got)
	}
	if s1.Count("snow") != 1 || s2.Count("snow") != 1 {
		t.Errorf("Add mutated source summaries: s1=%d s2=%d", s1.Count("snow"), s2.Count("snow"))
	}
	if h1.Hist("snow").Total() != 1 || h2.Hist("snow").Total() != 1 {
		t.Errorf("Add mutated a source histogram set: h1=%d h2=%d", h1.Hist("snow").Total(), h2.Hist("snow").Total())
	}

	// A stats-only partial under the same key leaves the distribution
	// under-counting: it is dropped, and the side table forgets the key.
	r.Add(k, s1)
	if _, kept := r.Hists[k]; kept {
		t.Error("under-counting histogram set still in the side table")
	}
}

func TestResultZeroValueUsable(t *testing.T) {
	var r Result
	k := cell.MustKey("9q8y", "2015-02-02", temporal.Day)
	s := cell.Summary{}
	s.Observe(cell.Snow, 1)
	r.Add(k, s)
	if r.Len() != 1 {
		t.Error("zero-value result should accept Add")
	}
}

func TestResultMergeCommutative(t *testing.T) {
	f := func(vals1, vals2 []float64) bool {
		k := cell.MustKey("9q8y", "2015-02-02", temporal.Day)
		mk := func(vs []float64) Result {
			r := NewResult()
			s := cell.Summary{}
			for _, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				s.Observe(cell.Humidity, math.Mod(v, 1e6))
			}
			if !s.Empty() {
				r.Add(k, s)
			}
			return r
		}
		a1, b1 := mk(vals1), mk(vals2)
		a2, b2 := mk(vals1), mk(vals2)
		a1.Merge(b1)
		b2.Merge(a2)
		if a1.Len() != b2.Len() {
			return false
		}
		sa, sb := a1.Cells[k], b2.Cells[k]
		return sa.Count("humidity") == sb.Count("humidity") &&
			sa.Stats[cell.Humidity].Min == sb.Stats[cell.Humidity].Min &&
			sa.Stats[cell.Humidity].Max == sb.Stats[cell.Humidity].Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueryString(t *testing.T) {
	if stateQuery().String() == "" {
		t.Error("String should format")
	}
}

func BenchmarkFootprintStateQuery(b *testing.B) {
	q := stateQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Footprint(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPolygonQueryFootprint(t *testing.T) {
	tri := geohash.Polygon{{Lat: 30, Lon: -100}, {Lat: 45, Lon: -90}, {Lat: 30, Lon: -80}}
	pq, err := NewPolygonQuery(tri, temporal.DayRange(2015, 2, 2), 3, temporal.Day)
	if err != nil {
		t.Fatal(err)
	}
	polyKeys, err := pq.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	rect := pq
	rect.Polygon = nil // same bbox, rectangular
	rectKeys, err := rect.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	if len(polyKeys) == 0 || len(polyKeys) >= len(rectKeys) {
		t.Errorf("polygon footprint %d should be a strict subset of bbox footprint %d",
			len(polyKeys), len(rectKeys))
	}
	n, err := pq.FootprintCount()
	if err != nil || n != len(polyKeys) {
		t.Errorf("FootprintCount = %d,%v want %d", n, err, len(polyKeys))
	}
}

func TestPolygonQueryValidation(t *testing.T) {
	if _, err := NewPolygonQuery(geohash.Polygon{{Lat: 0, Lon: 0}}, temporal.DayRange(2015, 2, 2), 3, temporal.Day); err == nil {
		t.Error("degenerate polygon accepted")
	}
	q := stateQuery()
	q.Polygon = geohash.Polygon{{Lat: 0, Lon: 0}, {Lat: 1, Lon: 1}} // invalid even with valid Box
	if q.Validate() == nil {
		t.Error("invalid polygon on a valid box accepted")
	}
}

func TestPolygonQueryPanAndDice(t *testing.T) {
	tri := geohash.Polygon{{Lat: 30, Lon: -100}, {Lat: 45, Lon: -90}, {Lat: 30, Lon: -80}}
	pq, err := NewPolygonQuery(tri, temporal.DayRange(2015, 2, 2), 3, temporal.Day)
	if err != nil {
		t.Fatal(err)
	}
	panned := pq.Pan(geohash.East, 0.10)
	if panned.Polygon[0].Lon <= pq.Polygon[0].Lon {
		t.Error("pan did not move polygon vertices")
	}
	if math.Abs(panned.Polygon.BoundingBox().Width()-pq.Polygon.BoundingBox().Width()) > 1e-9 {
		t.Error("pan changed polygon extent")
	}
	if err := panned.Validate(); err != nil {
		t.Errorf("panned polygon query invalid: %v", err)
	}

	diced := pq.DiceShrink(0.2)
	ratio := dicedArea(diced.Polygon) / dicedArea(pq.Polygon)
	if math.Abs(ratio-0.8) > 1e-9 {
		t.Errorf("dice area ratio = %v, want 0.8", ratio)
	}
}

// dicedArea computes the shoelace area of a polygon (planar approximation).
func dicedArea(p geohash.Polygon) float64 {
	var a float64
	n := len(p)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a += p[i].Lon*p[j].Lat - p[j].Lon*p[i].Lat
	}
	return math.Abs(a) / 2
}

// --- coverage report (partial-result contract) ---

func TestCoverageZeroValueComplete(t *testing.T) {
	var c Coverage
	if !c.Complete() {
		t.Error("zero-value coverage must read as complete")
	}
	if c.Ratio() != 1 {
		t.Errorf("zero-value ratio = %v, want 1", c.Ratio())
	}
	if c.Missing() != 0 {
		t.Errorf("zero-value missing = %d", c.Missing())
	}
	if c.String() == "" {
		t.Error("empty coverage string")
	}
	var r Result
	if !r.Coverage.Complete() {
		t.Error("zero-value result coverage incomplete")
	}
}

func TestCoveragePartialAccounting(t *testing.T) {
	c := Coverage{
		Requested:       10,
		Covered:         6,
		Degraded:        2,
		SharesRequested: 16,
		SharesServed:    10,
		NodeErrors:      map[string]string{"node-3": "cluster: node unavailable"},
	}
	if c.Complete() {
		t.Error("partial coverage reads as complete")
	}
	if got := c.Missing(); got != 2 {
		t.Errorf("Missing() = %d, want 2", got)
	}
	if got := c.Ratio(); math.Abs(got-10.0/16.0) > 1e-12 {
		t.Errorf("Ratio() = %v, want %v", got, 10.0/16.0)
	}
	if s := c.String(); !strings.Contains(s, "partial") || !strings.Contains(s, "2 degraded") {
		t.Errorf("String() = %q, want partial summary", s)
	}
	// Full coverage with no errors is complete even when shares are tracked.
	full := Coverage{Requested: 4, Covered: 4, SharesRequested: 6, SharesServed: 6}
	if !full.Complete() || full.Ratio() != 1 {
		t.Errorf("full coverage misreported: %+v", full)
	}
	// All shares failed: ratio 0, nothing covered.
	none := Coverage{Requested: 4, SharesRequested: 4}
	if none.Complete() || none.Ratio() != 0 || none.Missing() != 4 {
		t.Errorf("empty coverage misreported: %+v", none)
	}
	// Missing never goes negative on inconsistent inputs.
	odd := Coverage{Requested: 1, Covered: 2}
	if odd.Missing() != 0 {
		t.Errorf("Missing() went negative: %d", odd.Missing())
	}
}

func TestResultMergeDoesNotTouchCoverage(t *testing.T) {
	a := NewResult()
	a.Coverage = Coverage{Requested: 5, Covered: 5}
	b := NewResult()
	b.Coverage = Coverage{Requested: 9, Covered: 1}
	a.Merge(b)
	if a.Coverage.Requested != 5 || a.Coverage.Covered != 5 {
		t.Errorf("Merge mutated coverage: %+v", a.Coverage)
	}
}
