// Package query defines STASH's aggregation query model and the OLAP-style
// visual-navigation operators (slice, dice, pan, zoom, drill-down, roll-up)
// that the paper's workloads are built from (§II-B, §V-B).
//
// A Query corresponds to the paper's SQL sketch: aggregate every observation
// inside a spatial polygon (here: a rectangle) and a time window, grouped by
// a spatial resolution (geohash precision) and a temporal resolution. Its
// answer is a Result: one summarized Cell per (geohash, time label) bin.
package query

import (
	"errors"
	"fmt"
	"math"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/temporal"
)

// ErrInvalid reports a malformed query.
var ErrInvalid = errors.New("query: invalid query")

// MaxFootprint bounds how many cells a single query may touch. It protects
// the system from degenerate requests (e.g. the whole globe at precision 8),
// mirroring the perceptual-scalability argument of the paper's introduction:
// no display can use more bins than this anyway.
const MaxFootprint = 1 << 20

// Query is a hierarchical aggregation query.
type Query struct {
	// Box is the rectangular spatial extent. When Polygon is set, Box is
	// ignored for footprint computation (the polygon's bounding box rules).
	Box geohash.Box
	// Polygon optionally restricts the query to a lassoed region — the
	// general form of the paper's Query_Polygon. Nil means rectangular.
	Polygon geohash.Polygon
	// Time is the temporal extent (the paper's Query_Time).
	Time temporal.Range
	// SpatialRes is the requested geohash precision of the result bins.
	SpatialRes int
	// TemporalRes is the requested temporal resolution of the result bins.
	TemporalRes temporal.Resolution
}

// NewPolygonQuery builds a lasso query over the polygon; the Box is set to
// the polygon's bounding box.
func NewPolygonQuery(p geohash.Polygon, tr temporal.Range, sres int, tres temporal.Resolution) (Query, error) {
	q := Query{Box: p.BoundingBox(), Polygon: p, Time: tr, SpatialRes: sres, TemporalRes: tres}
	return q, q.Validate()
}

// Validate checks the query's bounds and resolutions.
func (q Query) Validate() error {
	if q.Polygon != nil {
		if err := q.Polygon.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		if !q.Polygon.BoundingBox().Valid() {
			return fmt.Errorf("%w: degenerate polygon bounds", ErrInvalid)
		}
	} else if !q.Box.Valid() {
		return fmt.Errorf("%w: box %v", ErrInvalid, q.Box)
	}
	if !q.Time.Valid() {
		return fmt.Errorf("%w: empty time range", ErrInvalid)
	}
	if q.SpatialRes < 1 || q.SpatialRes > cell.MaxSpatialPrecision {
		return fmt.Errorf("%w: spatial resolution %d", ErrInvalid, q.SpatialRes)
	}
	if !q.TemporalRes.Valid() {
		return fmt.Errorf("%w: temporal resolution %d", ErrInvalid, int(q.TemporalRes))
	}
	n, err := q.FootprintCount()
	if err != nil {
		return err
	}
	if n > MaxFootprint {
		return fmt.Errorf("%w: footprint %d exceeds limit %d", ErrInvalid, n, MaxFootprint)
	}
	return nil
}

// Footprint enumerates the cell keys the query's answer is built from: the
// cross product of the geohash tiles covering Box and the temporal labels
// covering Time, at the requested resolutions.
func (q Query) Footprint() ([]cell.Key, error) {
	var ghs []geohash.Hash
	var err error
	if q.Polygon != nil {
		ghs, err = geohash.CoverPolygonHashes(q.Polygon, q.SpatialRes)
	} else {
		ghs, err = geohash.CoverHashes(q.Box, q.SpatialRes)
	}
	if err != nil {
		return nil, err
	}
	labels, err := q.Time.Cover(q.TemporalRes)
	if err != nil {
		return nil, err
	}
	out := make([]cell.Key, 0, len(ghs)*len(labels))
	for _, gh := range ghs {
		for _, l := range labels {
			out = append(out, cell.Key{Geohash: gh, Time: l})
		}
	}
	return out, nil
}

// FootprintCount returns len(Footprint()) without materializing the keys
// (for rectangular queries; polygon covers are counted by materializing the
// spatial tiles, which the MaxFootprint bound on the bounding box keeps
// tractable).
func (q Query) FootprintCount() (int, error) {
	var s int
	var err error
	if q.Polygon != nil {
		// Bound the candidate bbox first so a degenerate polygon cannot
		// force a huge enumeration.
		bb, err := geohash.CoverCount(q.Polygon.BoundingBox(), q.SpatialRes)
		if err != nil {
			return 0, err
		}
		if bb > MaxFootprint {
			return bb, nil // over limit either way; skip materializing
		}
		ghs, err := geohash.CoverPolygonHashes(q.Polygon, q.SpatialRes)
		if err != nil {
			return 0, err
		}
		s = len(ghs)
	} else {
		s, err = geohash.CoverCount(q.Box, q.SpatialRes)
		if err != nil {
			return 0, err
		}
	}
	t, err := q.Time.CoverCount(q.TemporalRes)
	if err != nil {
		return 0, err
	}
	return s * t, nil
}

// Level returns the STASH hierarchy level the query's cells live on.
func (q Query) Level() int {
	return int(q.TemporalRes)*cell.MaxSpatialPrecision + (q.SpatialRes - 1)
}

// Equal reports whether two queries denote the same request. Query contains
// a Polygon slice, so == does not apply; Equal compares the polygon
// vertex-wise. The metamorphic round-trip identities (drill-down then
// roll-up, zoom-out then zoom-in) rely on this to assert the operators
// returned to the starting query exactly.
func (q Query) Equal(o Query) bool {
	if q.Box != o.Box || q.Time != o.Time ||
		q.SpatialRes != o.SpatialRes || q.TemporalRes != o.TemporalRes {
		return false
	}
	if len(q.Polygon) != len(o.Polygon) {
		return false
	}
	for i, v := range q.Polygon {
		if v != o.Polygon[i] {
			return false
		}
	}
	return true
}

func (q Query) String() string {
	return fmt.Sprintf("q{%v %s..%s res=(%d,%v)}",
		q.Box, q.Time.Start.Format("2006-01-02T15"), q.Time.End.Format("2006-01-02T15"),
		q.SpatialRes, q.TemporalRes)
}

// --- OLAP visual-navigation operators (paper §V-B) ---

// Pan shifts the query rectangle by fraction of its own extent in the given
// compass direction, clamped to the globe — the paper's panning operator.
func (q Query) Pan(d geohash.Direction, fraction float64) Query {
	dLat, dLon := d.Offsets()
	dy := float64(dLat) * q.Box.Height() * fraction
	dx := float64(dLon) * q.Box.Width() * fraction
	nb := geohash.Box{
		MinLat: q.Box.MinLat + dy, MaxLat: q.Box.MaxLat + dy,
		MinLon: q.Box.MinLon + dx, MaxLon: q.Box.MaxLon + dx,
	}
	// Clamp by sliding back inside the globe, preserving extent.
	if nb.MinLat < -90 {
		nb.MaxLat += -90 - nb.MinLat
		nb.MinLat = -90
	}
	if nb.MaxLat > 90 {
		nb.MinLat -= nb.MaxLat - 90
		nb.MaxLat = 90
	}
	if nb.MinLon < -180 {
		nb.MaxLon += -180 - nb.MinLon
		nb.MinLon = -180
	}
	if nb.MaxLon > 180 {
		nb.MinLon -= nb.MaxLon - 180
		nb.MaxLon = 180
	}
	// A polygon pans with its viewport (by the possibly-clamped shift).
	if q.Polygon != nil {
		sLat := nb.MinLat - q.Box.MinLat
		sLon := nb.MinLon - q.Box.MinLon
		moved := make(geohash.Polygon, len(q.Polygon))
		for i, v := range q.Polygon {
			moved[i] = geohash.Point{Lat: v.Lat + sLat, Lon: v.Lon + sLon}
		}
		q.Polygon = moved
	}
	q.Box = nb
	return q
}

// DiceShrink contracts the rectangle around its center so its area drops by
// the given fraction (0 < fraction < 1) — one step of the paper's descending
// iterative dicing (20% spatial area reduction per step).
func (q Query) DiceShrink(fraction float64) Query {
	return q.scale(1 - fraction)
}

// DiceExpand grows the rectangle around its center so its area increases by
// the given fraction — one step of ascending iterative dicing.
func (q Query) DiceExpand(fraction float64) Query {
	return q.scale(1 + fraction)
}

func (q Query) scale(areaFactor float64) Query {
	if areaFactor <= 0 {
		return q
	}
	lin := sqrtPos(areaFactor)
	cLat, cLon := q.Box.Center()
	halfH := q.Box.Height() / 2 * lin
	halfW := q.Box.Width() / 2 * lin
	q.Box = geohash.Box{
		MinLat: cLat - halfH, MaxLat: cLat + halfH,
		MinLon: cLon - halfW, MaxLon: cLon + halfW,
	}.Clamp()
	// A polygon dices around the same center.
	if q.Polygon != nil {
		scaled := make(geohash.Polygon, len(q.Polygon))
		for i, v := range q.Polygon {
			scaled[i] = geohash.Point{
				Lat: cLat + (v.Lat-cLat)*lin,
				Lon: cLon + (v.Lon-cLon)*lin,
			}
		}
		q.Polygon = scaled
	}
	return q
}

// DrillDown increases the spatial resolution by one step (zoom-in); ok is
// false at the maximum precision.
func (q Query) DrillDown() (Query, bool) {
	if q.SpatialRes >= cell.MaxSpatialPrecision {
		return q, false
	}
	q.SpatialRes++
	return q, true
}

// RollUp decreases the spatial resolution by one step (zoom-out); ok is
// false at precision 1.
func (q Query) RollUp() (Query, bool) {
	if q.SpatialRes <= 1 {
		return q, false
	}
	q.SpatialRes--
	return q, true
}

// DrillDownTemporal moves to the next finer temporal resolution.
func (q Query) DrillDownTemporal() (Query, bool) {
	r, ok := q.TemporalRes.Finer()
	if !ok {
		return q, false
	}
	q.TemporalRes = r
	return q, true
}

// RollUpTemporal moves to the next coarser temporal resolution.
func (q Query) RollUpTemporal() (Query, bool) {
	r, ok := q.TemporalRes.Coarser()
	if !ok {
		return q, false
	}
	q.TemporalRes = r
	return q, true
}

// SliceTime restricts the query to a single temporal label — the slicing
// operator (pick a subset by choosing a single dimension).
func (q Query) SliceTime(l temporal.Label) (Query, error) {
	s, err := l.Start()
	if err != nil {
		return q, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	e, err := l.End()
	if err != nil {
		return q, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	q.Time = temporal.Range{Start: s, End: e}
	q.TemporalRes = l.Res
	return q, nil
}

// Dice constrains both dimensions at once: a new rectangle and time range —
// the general dicing operator.
func (q Query) Dice(box geohash.Box, tr temporal.Range) Query {
	q.Box = box
	q.Time = tr
	return q
}

func sqrtPos(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// --- Results ---

// Coverage reports how much of a query's requested footprint a result
// actually covers. The coordinator fills it in when graceful degradation is
// active: under node failures a query can return a *partial* map instead of
// an error, and the caller uses Coverage to render what arrived and flag
// what did not.
//
// A "share" is one owner sub-request of one key: keys at or finer than the
// partition prefix have exactly one share, coarser keys have one share per
// node owning an extending partition (each contributing a partial
// aggregate). Counting shares, not just keys, is what lets a coarse key be
// reported as Degraded — present in the map but under-counting — rather
// than silently wrong.
//
// The zero value means "complete by construction" (no failure handling was
// active on the query path): Complete() is true and Ratio() is 1.
type Coverage struct {
	// Requested is the number of footprint cell keys the query asked for.
	Requested int
	// Covered counts keys every owner share of which was served.
	Covered int
	// Degraded counts keys served by only a strict subset of their owner
	// shares: they appear in the result but their aggregates under-count.
	Degraded int
	// Recovered counts shares rescued by a failover path (replica helpers
	// or partition scatter) after the primary owner failed.
	Recovered int
	// SharesRequested / SharesServed count owner sub-request shares; their
	// ratio is the finest-grained completeness measure.
	SharesRequested int
	SharesServed    int
	// NodeErrors records the final per-node failure behind any missing
	// coverage, keyed by node name (e.g. "node-3").
	NodeErrors map[string]string
}

// Complete reports whether the result covers the full requested footprint.
func (c Coverage) Complete() bool {
	return c.Requested == 0 || (c.Covered == c.Requested && len(c.NodeErrors) == 0)
}

// Ratio returns the fraction of owner shares served, in [0,1]; 1 when no
// coverage accounting was active.
func (c Coverage) Ratio() float64 {
	if c.SharesRequested == 0 {
		return 1
	}
	return float64(c.SharesServed) / float64(c.SharesRequested)
}

// Missing returns the number of requested keys entirely absent from the
// result's coverage (neither covered nor degraded).
func (c Coverage) Missing() int {
	m := c.Requested - c.Covered - c.Degraded
	if m < 0 {
		return 0
	}
	return m
}

func (c Coverage) String() string {
	if c.Complete() {
		return fmt.Sprintf("complete (%d/%d keys)", c.Covered, c.Requested)
	}
	return fmt.Sprintf("partial %d/%d keys (%d degraded, %d missing, %.0f%% of shares, %d node errors)",
		c.Covered, c.Requested, c.Degraded, c.Missing(), 100*c.Ratio(), len(c.NodeErrors))
}

// Result is the answer to a Query: one summary per footprint cell that
// contained any data. Cells with no observations are omitted. Coverage
// describes how much of the requested footprint the cells represent; see
// Coverage for the partial-result contract.
//
// Summaries are plain values: a result owns its copies, and nothing a holder
// does to one reaches a cache or another result. Hists is the side table of
// per-cell distributions, nil unless the aggregation pipeline keeps
// histograms; its sets ARE shared with caches and other results and are
// immutable by convention — Add never folds into one it was handed, only into
// a private clone.
type Result struct {
	Cells    map[cell.Key]cell.Summary
	Hists    map[cell.Key]*cell.Hists
	Coverage Coverage
}

// NewResult returns an empty result.
func NewResult() Result { return Result{Cells: map[cell.Key]cell.Summary{}} }

// NewResultCap returns an empty result preallocated for n cells, for callers
// (wire decoders, the final materialization) that know the size up front and
// want to avoid incremental map growth.
func NewResultCap(n int) Result {
	return Result{Cells: make(map[cell.Key]cell.Summary, n)}
}

// Add merges a summary into the result under the given key.
func (r *Result) Add(k cell.Key, s cell.Summary) { r.AddCell(k, s, nil) }

// AddCell merges a summary and the distributions kept beside it (nil for
// none) into the result under the given key. The first insert aliases h;
// later ones fold into a private clone, never into h or the set already
// there.
func (r *Result) AddCell(k cell.Key, s cell.Summary, h *cell.Hists) {
	cur, ok := r.Cells[k]
	if !ok {
		r.Set(k, s, h)
		return
	}
	cur.Merge(s)
	if h == nil && r.Hists[k] == nil {
		r.Cells[k] = cur
		return
	}
	r.Set(k, cur, foldedHists(r.Hists[k], h, &cur))
}

// Set stores a cell under the key, replacing what was there. h is aliased; a
// set that keeps no histogram is not stored.
func (r *Result) Set(k cell.Key, s cell.Summary, h *cell.Hists) {
	if r.Cells == nil {
		r.Cells = map[cell.Key]cell.Summary{}
	}
	r.Cells[k] = s
	if h != nil || r.Hists != nil {
		putHists(&r.Hists, k, h)
	}
}

// foldedHists returns the distributions of a cell after a partial whose
// distributions are h merged into one whose distributions are cur, merged
// being the merged summary: a private clone of cur with h folded in (see
// cell.Hists.Fold for what survives). Neither input is touched.
func foldedHists(cur, h *cell.Hists, merged *cell.Summary) *cell.Hists {
	own := cur.Clone()
	if own == nil {
		own = new(cell.Hists)
	}
	own.Fold(h, merged)
	return own
}

// putHists files h under k in a side table of distributions, making the table
// on first use; a set that keeps no histogram is removed instead.
func putHists(table *map[cell.Key]*cell.Hists, k cell.Key, h *cell.Hists) {
	if h.None() {
		delete(*table, k)
		return
	}
	if *table == nil {
		*table = make(map[cell.Key]*cell.Hists, 4)
	}
	(*table)[k] = h
}

// Merge folds another result's cells into this one. Coverage is NOT merged:
// it is a per-query report computed by the coordinator over the final merged
// result, and sub-results carry none.
func (r *Result) Merge(o Result) {
	for k, s := range o.Cells {
		r.AddCell(k, s, o.Hists[k])
	}
}

// Len returns the number of non-empty cells in the result.
func (r Result) Len() int { return len(r.Cells) }

// TotalCount sums the observation count of the named attribute over all
// cells — a convenient invariant check for tests.
func (r Result) TotalCount(attr string) int64 {
	var n int64
	for _, s := range r.Cells {
		n += s.Count(attr)
	}
	return n
}
