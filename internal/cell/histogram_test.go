package cell

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(10, 5, 4); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	h, err := NewHistogram(0, 10, 5)
	if err != nil || h.Buckets() != 5 {
		t.Fatalf("valid histogram rejected: %v", err)
	}
}

func TestMustHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHistogram should panic on bad shape")
		}
	}()
	MustHistogram(1, 0, 4)
}

func TestHistogramObserveBuckets(t *testing.T) {
	h := MustHistogram(0, 10, 5) // buckets of width 2
	for _, v := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Observe(v)
	}
	if h.Under != 1 {
		t.Errorf("under = %d", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("over = %d", h.Over)
	}
	want := []int64{2, 1, 1, 0, 1} // {0,1.9}, {2}, {5}, {}, {9.99}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (%v)", i, c, want[i], h.Counts)
			break
		}
	}
	if h.Total() != 8 {
		t.Errorf("total = %d", h.Total())
	}
	h.Observe(math.NaN())
	if h.Total() != 8 {
		t.Error("NaN counted")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := MustHistogram(0, 10, 5)
	b := MustHistogram(0, 10, 5)
	for i := 0; i < 10; i++ {
		a.Observe(float64(i))
		b.Observe(float64(i) / 2)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 20 {
		t.Errorf("merged total = %d", a.Total())
	}
	if err := a.Merge(nil); err != nil {
		t.Error("nil merge should be a no-op")
	}
	c := MustHistogram(0, 20, 5)
	if err := a.Merge(c); err == nil {
		t.Error("mismatched bounds accepted")
	}
	d := MustHistogram(0, 10, 7)
	if err := a.Merge(d); err == nil {
		t.Error("mismatched bucket count accepted")
	}
}

func TestHistogramMergeEquivalentToObserveAll(t *testing.T) {
	f := func(xs, ys []float64) bool {
		a := MustHistogram(-100, 100, 16)
		b := MustHistogram(-100, 100, 16)
		all := MustHistogram(-100, 100, 16)
		for _, v := range xs {
			v = math.Mod(v, 300)
			a.Observe(v)
			all.Observe(v)
		}
		for _, v := range ys {
			v = math.Mod(v, 300)
			b.Observe(v)
			all.Observe(v)
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		if a.Under != all.Under || a.Over != all.Over {
			return false
		}
		for i := range a.Counts {
			if a.Counts[i] != all.Counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramClone(t *testing.T) {
	h := MustHistogram(0, 10, 5)
	h.Observe(3)
	c := h.Clone()
	c.Observe(3)
	if h.Counts[1] != 1 || c.Counts[1] != 2 {
		t.Error("clone not independent")
	}
	var nilH *Histogram
	if nilH.Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := MustHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	if q := h.Quantile(0.5); math.Abs(q-50) > 10 {
		t.Errorf("median = %v, want ~50", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Errorf("q0 = %v", q)
	}
	if q := h.Quantile(1); math.Abs(q-100) > 10 {
		t.Errorf("q1 = %v", q)
	}
	if q := h.Quantile(0.9); math.Abs(q-90) > 10 {
		t.Errorf("p90 = %v", q)
	}
	empty := MustHistogram(0, 1, 2)
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.1)) {
		t.Error("out-of-range q should be NaN")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		h := MustHistogram(-50, 50, 12)
		for _, v := range xs {
			h.Observe(math.Mod(v, 120))
		}
		if h.Total() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummaryObserveHist(t *testing.T) {
	var s Summary
	var h Hists
	spec := HistogramSpec{Lo: 0, Hi: 10, Buckets: 5}
	for _, v := range []float64{1, 3, 5} {
		s.Observe(Snow, v)
		if err := h.Observe(Snow, v, spec); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Hist("snow"); got == nil || got.Total() != s.Count("snow") {
		t.Fatalf("hist = %+v", got)
	}
	if h.Hist("humidity") != nil || h.Hist("wind") != nil {
		t.Error("absent attribute returned a histogram")
	}
	if (*Hists)(nil).Hist("snow") != nil {
		t.Error("nil set returned a histogram")
	}
	if err := h.Observe(Humidity, 1, HistogramSpec{Lo: 5, Hi: 1, Buckets: 3}); err == nil {
		t.Error("bad spec accepted")
	}
}

// histCell is a summary with its distributions beside it.
type histCell struct {
	sum   Summary
	hists *Hists
}

// fold merges o into c the way every holder of a (summary, hists) pair does:
// merge the stats, then fold the distributions into a private clone.
func (c *histCell) fold(o histCell) {
	c.sum.Merge(o.sum)
	own := c.hists.Clone()
	if own == nil {
		own = new(Hists)
	}
	own.Fold(o.hists, &c.sum)
	c.hists = own
}

func TestSummaryMergeHistograms(t *testing.T) {
	spec := HistogramSpec{Lo: 0, Hi: 10, Buckets: 5}
	mk := func(vals ...float64) histCell {
		c := histCell{hists: new(Hists)}
		for _, v := range vals {
			c.sum.Observe(Snow, v)
			_ = c.hists.Observe(Snow, v, spec)
		}
		return c
	}
	a := mk(1, 2)
	b := mk(3, 4, 5)
	a.fold(b)
	if got := a.hists.Hist("snow").Total(); got != 5 {
		t.Errorf("merged hist total = %d", got)
	}
	if a.sum.Count("snow") != 5 {
		t.Errorf("merged stat count = %d", a.sum.Count("snow"))
	}
	if b.hists.Hist("snow").Total() != 3 {
		t.Error("Fold mutated the set it read")
	}
}

func TestSummaryMergeDropsUndercountingHist(t *testing.T) {
	spec := HistogramSpec{Lo: 0, Hi: 10, Buckets: 5}
	mk := func(v float64, keep bool) histCell {
		var c histCell
		c.sum.Observe(Snow, v)
		if keep {
			c.hists = new(Hists)
			_ = c.hists.Observe(Snow, v, spec)
		}
		return c
	}

	// Merging a stats-only cell in must drop the histogram: it would
	// under-count relative to the merged stats.
	withHist := mk(1, true)
	withHist.fold(mk(2, false))
	if withHist.hists.Hist("snow") != nil {
		t.Error("undercounting histogram survived merge")
	}
	if !withHist.hists.None() {
		t.Error("a set with every histogram dropped should report None")
	}

	// Conversely, merging a hist-carrying cell into a stats-only one adopts
	// the histogram only if it covers every merged observation.
	statsOnly := mk(2, false)
	statsOnly.fold(mk(1, true))
	if statsOnly.hists.Hist("snow") != nil {
		t.Error("partial histogram adopted")
	}
	var empty histCell // a negative-cache entry
	empty.fold(mk(1, true))
	if h := empty.hists.Hist("snow"); h == nil || h.Total() != 1 {
		t.Error("histogram covering every observation not adopted")
	}

	// Two shapes that do not match cannot merge: dropped, not skewed.
	other := histCell{hists: new(Hists)}
	other.sum.Observe(Snow, 3)
	_ = other.hists.Observe(Snow, 3, HistogramSpec{Lo: 0, Hi: 20, Buckets: 5})
	mismatched := mk(1, true)
	mismatched.fold(other)
	if mismatched.hists.Hist("snow") != nil {
		t.Error("mismatched shapes merged")
	}
}

func TestSummaryCloneDeepCopiesHists(t *testing.T) {
	h := new(Hists)
	_ = h.Observe(Snow, 1, HistogramSpec{Lo: 0, Hi: 10, Buckets: 5})
	c := h.Clone()
	c.Hist("snow").Observe(2)
	if h.Hist("snow").Total() != 1 || c.Hist("snow").Total() != 2 {
		t.Error("clone shares histogram storage")
	}
	if (*Hists)(nil).Clone() != nil {
		t.Error("nil set should clone to nil")
	}
}
