// Package cell defines the STASH Cell, the minimum unit of storage in the
// STASH graph (paper §IV-A, Table I). A Cell couples
//
//  1. spatiotemporal labels — a Geohash plus a temporal label that fix the
//     Cell's bounds and resolutions,
//  2. aggregated summary statistics — mergeable per-attribute aggregates
//     (count/sum/min/max) over the raw observations in those bounds, and
//  3. edge information — the lateral and hierarchical neighborhood, which
//     STASH derives algebraically from the labels rather than storing
//     pointers (paper §IV-D).
//
// The package also carries the freshness state used by the cache-replacement
// policy (paper §V-C).
package cell

import (
	"errors"
	"fmt"
	"math"

	"stash/internal/geohash"
	"stash/internal/temporal"
)

// MaxSpatialPrecision is the paper's n_s: the count of spatial resolutions
// STASH distinguishes. Visual workloads in the paper use precisions 1-6;
// we allow up to 8 to leave drill-down headroom.
const MaxSpatialPrecision = 8

// ErrBadKey reports a malformed cell key.
var ErrBadKey = errors.New("cell: bad key")

// Key identifies a Cell: a spatial label (a packed geohash, whose length is
// the spatial resolution) and a temporal label (whose Res is the temporal
// resolution). It is 16 bytes, pointer-free and comparable, so hashing,
// comparing and copying a key never touches text; the whole edge algebra
// below is integer work on the two labels. The zero Key is not a valid cell,
// which lets key tables use it as their empty slot.
type Key struct {
	Geohash geohash.Hash
	Time    temporal.Label
}

// NewKey validates and builds a cell key from geohash text.
func NewKey(gh string, t temporal.Label) (Key, error) {
	h, err := geohash.Pack(gh)
	if err != nil {
		return Key{}, fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	return KeyOf(h, t)
}

// KeyOf validates and builds a cell key from a packed geohash.
func KeyOf(h geohash.Hash, t temporal.Label) (Key, error) {
	if !h.Valid() {
		return Key{}, fmt.Errorf("%w: geohash %#x", ErrBadKey, uint64(h))
	}
	if h.Len() > MaxSpatialPrecision {
		return Key{}, fmt.Errorf("%w: geohash %v exceeds max precision %d", ErrBadKey, h, MaxSpatialPrecision)
	}
	if !t.Valid() {
		return Key{}, fmt.Errorf("%w: temporal label %v at %v", ErrBadKey, t, t.Res)
	}
	return Key{Geohash: h, Time: t}, nil
}

// MustKey is NewKey for known-good literals; it panics on error.
func MustKey(gh, timeText string, r temporal.Resolution) Key {
	k, err := NewKey(gh, temporal.MustParse(timeText, r))
	if err != nil {
		panic(err)
	}
	return k
}

// SpatialRes returns the cell's spatial resolution (geohash length).
func (k Key) SpatialRes() int { return k.Geohash.Len() }

// TemporalRes returns the cell's temporal resolution.
func (k Key) TemporalRes() temporal.Resolution { return k.Time.Res }

// Level returns the cell's depth in the STASH hierarchy. The paper (§IV-C)
// computes it as n_j*n_t + n_i over the current spatial (n_i) and temporal
// (n_j) resolutions; we instantiate that with n_i = geohash length - 1 and a
// row stride wide enough to keep every (spatial, temporal) pair on a distinct
// level: level = n_j*MaxSpatialPrecision + n_i.
func (k Key) Level() int {
	return int(k.Time.Res)*MaxSpatialPrecision + (k.Geohash.Len() - 1)
}

// NumLevels is the count of distinct hierarchy levels.
const NumLevels = temporal.NumResolutions * MaxSpatialPrecision

// Hash mixes the key's two 64-bit halves (packed geohash; resolution and
// bucket) through a splitmix64-style finalizer, so tables that mask off the
// low bits — graph stripes, open-addressing indexes — see every input bit.
func (k Key) Hash() uint64 {
	h := uint64(k.Geohash) ^ (uint64(uint32(k.Time.Bucket))<<8|uint64(uint8(k.Time.Res)))*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// String prints the key's text form, "geohash@label".
func (k Key) String() string {
	var buf [40]byte
	return string(k.Time.AppendText(append(k.Geohash.AppendText(buf[:0]), '@')))
}

// Less orders keys by geohash, then chronologically (coarser label first):
// the order of their text, which keeps exports and diffs stable.
func (k Key) Less(o Key) bool {
	if k.Geohash != o.Geohash {
		return k.Geohash < o.Geohash
	}
	return k.Time.Compare(o.Time) < 0
}

// Box returns the cell's spatial bounding box.
func (k Key) Box() geohash.Box { return k.Geohash.Box() }

// SpatialNeighbors returns the keys of the up-to-8 laterally adjacent cells
// in space (same resolutions, adjacent geohashes), clockwise from north.
func (k Key) SpatialNeighbors() []Key {
	var ns [8]geohash.Hash
	out := make([]Key, k.Geohash.Neighbors(&ns))
	for i := range out {
		out[i] = Key{Geohash: ns[i], Time: k.Time}
	}
	return out
}

// TemporalNeighbors returns the two laterally adjacent cells in time
// (previous and next label at the same resolutions).
func (k Key) TemporalNeighbors() ([]Key, error) {
	ls, err := k.Time.Neighbors()
	if err != nil {
		return nil, err
	}
	out := make([]Key, len(ls))
	for i, l := range ls {
		out[i] = Key{Geohash: k.Geohash, Time: l}
	}
	return out, nil
}

// LateralNeighbors returns the full lateral edge set of the cell: spatial
// neighbors followed by temporal neighbors (paper Fig. 1).
func (k Key) LateralNeighbors() ([]Key, error) {
	tp, err := k.TemporalNeighbors()
	if err != nil {
		return nil, err
	}
	return append(k.SpatialNeighbors(), tp...), nil
}

// Parents returns the cell's hierarchical parents. Per the paper (§IV-B) a
// cell has up to three parents: one step coarser in space, one step coarser
// in time, and one step coarser in both.
func (k Key) Parents() []Key {
	var out []Key
	sp, hasSpatial := k.Geohash.Parent()
	tp, hasTemporal := k.Time.Parent()
	if hasSpatial {
		out = append(out, Key{Geohash: sp, Time: k.Time})
	}
	if hasTemporal {
		out = append(out, Key{Geohash: k.Geohash, Time: tp})
	}
	if hasSpatial && hasTemporal {
		out = append(out, Key{Geohash: sp, Time: tp})
	}
	return out
}

// SpatialChildren returns the 32 cells one spatial resolution finer. ok is
// false at the maximum spatial precision.
func (k Key) SpatialChildren() ([]Key, bool) {
	if k.Geohash.Len() >= MaxSpatialPrecision {
		return nil, false
	}
	out := make([]Key, geohash.BranchFactor)
	for i := range out {
		out[i] = Key{Geohash: k.Geohash.Child(i), Time: k.Time}
	}
	return out, true
}

// TemporalChildren returns the cells one temporal resolution finer. ok is
// false at the finest temporal resolution.
func (k Key) TemporalChildren() ([]Key, bool) {
	first, n, ok := k.Time.ChildRange()
	if !ok {
		return nil, false
	}
	out := make([]Key, n)
	for i := range out {
		out[i] = Key{Geohash: k.Geohash, Time: temporal.Label{Res: first.Res, Bucket: first.Bucket + int32(i)}}
	}
	return out, true
}

// Children returns every hierarchical child of the cell: spatial children,
// temporal children, and (resolution permitting) the spatiotemporal children
// one step finer in both dimensions.
func (k Key) Children() []Key {
	var out []Key
	sc, hasSpatial := k.SpatialChildren()
	out = append(out, sc...)
	tc, hasTemporal := k.TemporalChildren()
	out = append(out, tc...)
	if hasSpatial && hasTemporal {
		for _, s := range sc {
			stc, _ := s.TemporalChildren()
			out = append(out, stc...)
		}
	}
	return out
}

// Encloses reports whether k's spatiotemporal bounds fully contain o's
// (the hierarchical-edge containment property, paper §IV).
func (k Key) Encloses(o Key) bool {
	return o.Geohash.HasPrefix(k.Geohash) && k.Time.Encloses(o.Time)
}

// Stat is a mergeable aggregate over one observed attribute.
type Stat struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Observe folds one raw value into the aggregate.
func (s *Stat) Observe(v float64) {
	if s.Count == 0 {
		s.Min, s.Max = v, v
	} else {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Count++
	s.Sum += v
}

// Merge folds another aggregate into this one. Merging is commutative and
// associative, which is what lets STASH combine cached cells with
// disk-computed cells in any order.
func (s *Stat) Merge(o Stat) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = o
		return
	}
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Mean returns the arithmetic mean, or NaN for an empty aggregate.
func (s Stat) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// ApproxEqual reports whether two aggregates describe the same observation
// set. Count, Min and Max are order-independent reductions and must match
// exactly; Sum depends on float addition order (block-scan order vs merge
// order differ across serving paths), so it is compared within the given
// relative epsilon.
func (s Stat) ApproxEqual(o Stat, eps float64) bool {
	if s.Count != o.Count {
		return false
	}
	if s.Count == 0 {
		return true
	}
	return s.Min == o.Min && s.Max == o.Max && approxFloat(s.Sum, o.Sum, eps)
}

// SubsetOf reports whether s could be the aggregate of a subset of the
// observations o aggregates: no more observations, a minimum no smaller and
// a maximum no larger. This is the per-stat contract a *partial* query
// result (graceful degradation under node failures) must honor against a
// full recomputation — under-counting is acceptable, impossible bounds are
// not. Sum is unconstrained: a subset of signed values bounds nothing.
func (s Stat) SubsetOf(o Stat) bool {
	if s.Count > o.Count {
		return false
	}
	if s.Count == 0 {
		return true
	}
	return s.Min >= o.Min && s.Max <= o.Max
}

// approxFloat compares floats within a relative epsilon (absolute near zero).
func approxFloat(a, b, eps float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1 {
		return d < eps
	}
	return d/m < eps
}

// Attr indexes one attribute of the fixed schema every summary aggregates:
// the four NAM features the paper names (Table I, §VIII-B), which are the
// fields of a namgen.Observation. The schema is declared here, once, in name
// order, so walking a summary by index visits attributes in the order the
// text edges (wire, export, String) print them. Names exist only in parsers
// and at those edges; everything between indexes Summary.Stats by Attr.
type Attr uint8

// The schema. A new attribute goes in at its sorted position, and
// TestSummaryLayout then fails until the 128-byte rule is dealt with.
const (
	Humidity Attr = iota
	Precipitation
	Snow
	Temperature
)

// NumAttrs is the schema width.
const NumAttrs = 4

var attrNames = [NumAttrs]string{"humidity", "precipitation", "snow", "temperature"}

// String returns the attribute's name.
func (a Attr) String() string {
	if int(a) < NumAttrs {
		return attrNames[a]
	}
	return fmt.Sprintf("attr(%d)", uint8(a))
}

// AttrByName resolves an attribute name; ok is false for a name outside the
// schema. Edges that take names from outside the program reject those.
func AttrByName(name string) (Attr, bool) {
	for a, n := range attrNames {
		if n == name {
			return Attr(a), true
		}
	}
	return 0, false
}

// Summary is the per-attribute aggregate payload of a Cell — the content
// returned to clients (paper Table I, "aggregated summary statistics"): one
// Stat per schema attribute, where Count > 0 means the attribute was observed.
//
// It is a 128-byte pointer-free value, and the 128 is load-bearing: Go stores
// map elements larger than that indirectly, one allocation each, and
// query.Result is a map of summaries. Copying a summary copies it whole, so
// there is no aliasing to reason about. Optional distributions ride beside a
// summary as a *Hists, never inside it.
type Summary struct {
	Stats [NumAttrs]Stat
}

// Observe folds one raw value for the attribute.
func (s *Summary) Observe(a Attr, v float64) { s.Stats[a].Observe(v) }

// Merge folds another summary into this one, attribute-wise.
func (s *Summary) Merge(o Summary) {
	for a := range s.Stats {
		s.Stats[a].Merge(o.Stats[a])
	}
}

// Stat returns the named attribute's aggregate; ok is false when the name is
// outside the schema or the attribute has no observations.
func (s Summary) Stat(name string) (Stat, bool) {
	a, ok := AttrByName(name)
	if !ok || s.Stats[a].Count == 0 {
		return Stat{}, false
	}
	return s.Stats[a], true
}

// Count returns the observation count for the named attribute.
func (s Summary) Count(name string) int64 {
	st, _ := s.Stat(name)
	return st.Count
}

// Attrs returns the names of the observed attributes, in name order.
func (s Summary) Attrs() []string {
	out := make([]string, 0, NumAttrs)
	for a, st := range s.Stats {
		if st.Count > 0 {
			out = append(out, attrNames[a])
		}
	}
	return out
}

// Empty reports whether the summary holds no observations at all.
func (s Summary) Empty() bool {
	for a := range s.Stats {
		if s.Stats[a].Count > 0 {
			return false
		}
	}
	return true
}

// Cell is a vertex of the STASH graph: a key, its aggregate payload, and the
// freshness bookkeeping driving cache replacement. Edge information is not
// stored; it is derived from the Key (see the Key methods above). A Cell is
// pointer-free; the graph keeps its cells by value in per-stripe slabs.
type Cell struct {
	Key     Key
	Summary Summary

	// Freshness is the replacement score (paper §V-C1): the product of
	// access frequency and a time-decay factor, maintained incrementally.
	Freshness float64
	// Accesses counts direct hits on this cell.
	Accesses int64
	// LastTouch is the logical tick of the last freshness update, used to
	// apply decay lazily.
	LastTouch int64
}

// DecayFunc computes the multiplicative freshness decay over elapsed logical
// ticks. It must map 0 to 1 and be non-increasing.
type DecayFunc func(elapsed int64) float64

// ExpDecay returns an exponential decay with the given half-life in ticks.
// A non-positive half-life yields no decay.
func ExpDecay(halfLife int64) DecayFunc {
	if halfLife <= 0 {
		return func(int64) float64 { return 1 }
	}
	lambda := math.Ln2 / float64(halfLife)
	return func(elapsed int64) float64 {
		if elapsed <= 0 {
			return 1
		}
		return math.Exp(-lambda * float64(elapsed))
	}
}

// FreshnessAt returns the decayed freshness as of the given tick without
// mutating the cell.
func (c *Cell) FreshnessAt(tick int64, decay DecayFunc) float64 {
	return c.Freshness * decay(tick-c.LastTouch)
}

// Touch records a direct access at the given tick: decay is applied, the
// increment is added, and access counters advance (paper §V-C2).
func (c *Cell) Touch(tick int64, inc float64, decay DecayFunc) {
	c.Freshness = c.FreshnessAt(tick, decay) + inc
	c.Accesses++
	c.LastTouch = tick
}

// Disperse records an indirect (neighborhood) freshness boost at the given
// tick: the fraction of the increment dispersed to neighbors of an accessed
// region. It does not count as an access.
func (c *Cell) Disperse(tick int64, inc float64, decay DecayFunc) {
	c.Freshness = c.FreshnessAt(tick, decay) + inc
	c.LastTouch = tick
}
