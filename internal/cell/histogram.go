package cell

import (
	"errors"
	"fmt"
	"math"
)

// ErrHistMismatch reports a merge between histograms with different shapes.
var ErrHistMismatch = errors.New("cell: histogram bounds mismatch")

// Histogram is a mergeable fixed-bucket histogram over one attribute. The
// paper's front-end renders histograms as well as heatmaps; min/max/mean
// alone cannot drive those, so cells can optionally carry per-attribute
// distributions. Like Stat, merging is commutative and associative, so
// histograms compose across cells, nodes and cache tiers exactly like the
// other aggregates.
//
// Values below Lo land in the underflow bucket, values at or above Hi in
// the overflow bucket; the interior divides [Lo, Hi) uniformly.
type Histogram struct {
	Lo, Hi float64
	Under  int64
	Over   int64
	Counts []int64
}

// NewHistogram builds an empty histogram over [lo, hi) with the given number
// of interior buckets.
func NewHistogram(lo, hi float64, buckets int) (*Histogram, error) {
	if !(lo < hi) || buckets < 1 {
		return nil, fmt.Errorf("cell: invalid histogram shape [%v,%v)/%d", lo, hi, buckets)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, buckets)}, nil
}

// MustHistogram is NewHistogram for known-good literals; it panics on error.
func MustHistogram(lo, hi float64, buckets int) *Histogram {
	h, err := NewHistogram(lo, hi, buckets)
	if err != nil {
		panic(err)
	}
	return h
}

// Buckets returns the interior bucket count.
func (h *Histogram) Buckets() int { return len(h.Counts) }

// width returns one interior bucket's span.
func (h *Histogram) width() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// Observe folds one value into the histogram.
func (h *Histogram) Observe(v float64) {
	switch {
	case math.IsNaN(v):
		return
	case v < h.Lo:
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		i := int((v - h.Lo) / h.width())
		if i >= len(h.Counts) { // float edge at Hi
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of observed values.
func (h *Histogram) Total() int64 {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Merge folds another histogram into this one. Shapes must match.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		return fmt.Errorf("%w: [%v,%v)/%d vs [%v,%v)/%d",
			ErrHistMismatch, h.Lo, h.Hi, len(h.Counts), o.Lo, o.Hi, len(o.Counts))
	}
	h.Under += o.Under
	h.Over += o.Over
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	return nil
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	out := *h
	out.Counts = make([]int64, len(h.Counts))
	copy(out.Counts, h.Counts)
	return &out
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1),
// interpolating linearly within the containing bucket. Underflow clamps to
// Lo and overflow to Hi. NaN is returned for an empty histogram or invalid
// q.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Total()
	if total == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	target := q * float64(total)
	cum := float64(h.Under)
	if target <= cum {
		return h.Lo
	}
	for i, c := range h.Counts {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return h.Lo + (float64(i)+frac)*h.width()
		}
		cum = next
	}
	return h.Hi
}

// --- distributions beside a summary ---

// HistogramSpec describes the histogram an aggregation pipeline should
// maintain for one attribute.
type HistogramSpec struct {
	Lo, Hi  float64
	Buckets int
}

// Hists is the optional set of per-attribute distributions kept beside a
// Summary (in a graph record, in query.Result's side table) when the
// aggregation pipeline maintains histograms; a nil *Hists, or a nil entry,
// means none is kept. Sets reachable from a cache or a result are shared and
// never mutated: a scan observes into a set it owns, and merging goes through
// Fold on a private clone.
type Hists [NumAttrs]*Histogram

// Observe folds a value into the attribute's histogram, creating it with the
// given spec on first use. The caller must own h.
func (h *Hists) Observe(a Attr, v float64, spec HistogramSpec) error {
	if h[a] == nil {
		hist, err := NewHistogram(spec.Lo, spec.Hi, spec.Buckets)
		if err != nil {
			return err
		}
		h[a] = hist
	}
	h[a].Observe(v)
	return nil
}

// Hist returns the named attribute's histogram, or nil if none is kept.
func (h *Hists) Hist(name string) *Histogram {
	a, ok := AttrByName(name)
	if h == nil || !ok {
		return nil
	}
	return h[a]
}

// Clone returns a deep copy; nil clones to nil.
func (h *Hists) Clone() *Hists {
	if h == nil {
		return nil
	}
	out := new(Hists)
	for a, hist := range h {
		out[a] = hist.Clone()
	}
	return out
}

// Fold merges the distributions kept beside another summary into h, which the
// caller must own (its histograms are updated in place; o is only read).
// merged is the merge of the two summaries. A histogram survives only while
// it still accounts for every observation merged counts: one side observing
// an attribute without keeping its distribution, or two shapes that do not
// match, drop it rather than leave it silently under-counting.
func (h *Hists) Fold(o *Hists, merged *Summary) {
	for a := range h {
		var oh *Histogram
		if o != nil {
			oh = o[a]
		}
		switch {
		case h[a] != nil && oh != nil:
			if h[a].Merge(oh) != nil {
				h[a] = nil
			}
		case oh != nil:
			h[a] = oh.Clone()
		}
		if h[a] != nil && h[a].Total() != merged.Stats[a].Count {
			h[a] = nil
		}
	}
}

// None reports whether the set keeps no histogram at all.
func (h *Hists) None() bool {
	return h == nil || *h == Hists{}
}
