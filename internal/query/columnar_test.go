package query

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"stash/internal/cell"
	"stash/internal/temporal"
)

func colKey(i int) cell.Key {
	return cell.MustKey(fmt.Sprintf("9q%03d", i), "2021-06-01", temporal.Day)
}

func colSummary(rng *rand.Rand) cell.Summary {
	s := cell.Summary{}
	for _, attr := range []cell.Attr{cell.Temperature, cell.Humidity} {
		for n := rng.Intn(4); n >= 0; n-- {
			s.Observe(attr, rng.NormFloat64()*10)
		}
	}
	return s
}

// sameCells fails unless got holds exactly want's cells, stats within eps.
func sameCells(t *testing.T, got, want Result, eps float64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for k, ws := range want.Cells {
		gs, ok := got.Cells[k]
		if !ok {
			t.Fatalf("missing key %v", k)
		}
		for a, w := range ws.Stats {
			if g := gs.Stats[a]; !g.ApproxEqual(w, eps) {
				t.Fatalf("key %v attr %v: got %+v want %+v", k, cell.Attr(a), g, w)
			}
		}
	}
}

// TestColumnarMatchesScalarMerge: folding scalar results through the columnar
// path and materializing must equal plain Result.Merge over the same inputs.
func TestColumnarMatchesScalarMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parts := make([]Result, 6)
	for p := range parts {
		parts[p] = NewResult()
		for i := 0; i < 40; i++ {
			parts[p].Add(colKey(rng.Intn(25)), colSummary(rng))
		}
	}

	want := NewResult()
	for _, p := range parts {
		want.Merge(p)
	}

	c := GetColumnar()
	for _, p := range parts {
		c.MergeResult(p)
	}
	got := c.ToResult()
	c.Release()
	sameCells(t, got, want, 1e-9)
}

// TestColumnarMergeColumnar: gather-merging two columnar results must agree
// with folding both scalar inputs into one.
func TestColumnarMergeColumnar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := NewResult(), NewResult()
	for i := 0; i < 60; i++ {
		a.Add(colKey(rng.Intn(20)), colSummary(rng))
		b.Add(colKey(rng.Intn(20)+10), colSummary(rng)) // overlapping + disjoint keys
	}

	ca, cb := GetColumnar(), GetColumnar()
	ca.MergeResult(a)
	cb.MergeResult(b)
	ca.MergeColumnar(cb)
	cb.Release()
	got := ca.ToResult()
	ca.Release()

	want := NewResult()
	want.Merge(a)
	want.Merge(b)
	sameCells(t, got, want, 1e-9)
}

// TestColumnarHistogramSpill: distributions ride beside the arena in a side
// table, and the outcome — including the completeness rule cell.Hists.Fold
// applies — must match folding the same sequence through Result.AddCell,
// whether the partials arrive one by one or as a columnar gather.
func TestColumnarHistogramSpill(t *testing.T) {
	spec := cell.HistogramSpec{Lo: 0, Hi: 100, Buckets: 4}
	type part struct {
		k cell.Key
		s cell.Summary
		h *cell.Hists
	}
	histCell := func(k cell.Key, v float64) part {
		p := part{k: k, h: new(cell.Hists)}
		p.s.Observe(cell.Temperature, v)
		if err := p.h.Observe(cell.Temperature, v, spec); err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain := part{k: colKey(2)}
	plain.s.Observe(cell.Temperature, 10)

	// Key 1: two complete hist-bearing partials (the histogram survives).
	// Key 2: a plain partial, then a hist-bearing one (incomplete: dropped).
	// Key 3: a hist-bearing partial, then a plain one (now under-counting:
	// dropped).
	seq := []part{
		histCell(colKey(1), 20), histCell(colKey(1), 60),
		plain, histCell(colKey(2), 80),
		histCell(colKey(3), 5), {k: colKey(3), s: plain.s},
	}

	want := NewResult()
	c, left, right := GetColumnar(), GetColumnar(), GetColumnar()
	for i, e := range seq {
		want.AddCell(e.k, e.s, e.h)
		c.AddCell(e.k, &e.s, e.h)
		if i%2 == 0 {
			left.AddCell(e.k, &e.s, e.h)
		} else {
			right.AddCell(e.k, &e.s, e.h)
		}
	}
	left.MergeColumnar(right)
	right.Release()
	for name, cr := range map[string]*ColumnarResult{"one by one": c, "gathered": left} {
		got := cr.ToResult()
		cr.Release()
		sameCells(t, got, want, 1e-9)
		if len(got.Hists) != len(want.Hists) {
			t.Fatalf("%s: %d cells keep distributions, want %d", name, len(got.Hists), len(want.Hists))
		}
		for k, wh := range want.Hists {
			gh := got.Hists[k].Hist("temperature")
			if gh == nil || gh.Total() != wh.Hist("temperature").Total() {
				t.Fatalf("%s: key %v hist: got %v want total %d", name, k, gh, wh.Hist("temperature").Total())
			}
		}
		if h := got.Hists[colKey(1)].Hist("temperature"); h == nil || h.Total() != 2 {
			t.Fatalf("%s: complete histogram did not survive the merge: %v", name, h)
		}
	}
	if seq[0].h.Hist("temperature").Total() != 1 {
		t.Fatal("merging mutated an input's histogram set")
	}
}

// TestColumnarReleaseNoAliasing proves the pool-safety contract: a Result
// materialized by ToResult must stay intact (and race-free, under -race) while
// the released ColumnarResult is concurrently reacquired and overwritten with
// different data.
func TestColumnarReleaseNoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := GetColumnar()
	want := NewResult()
	for i := 0; i < 50; i++ {
		k, s := colKey(i), colSummary(rng)
		c.AddCell(k, &s, nil)
		want.Add(k, s)
	}
	out := c.ToResult()
	c.Release() // out must not alias anything the pool can hand back

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lrng := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 50; iter++ {
				cc := GetColumnar()
				for i := 0; i < 64; i++ {
					// Disjoint poison value: any aliasing shows up as a
					// corrupted stat below (and as a race under -race).
					s := cell.Summary{}
					s.Observe(cell.Temperature, -1e9)
					cc.AddCell(colKey(lrng.Intn(200)), &s, nil)
				}
				r := cc.ToResult()
				cc.Release()
				PutResult(r)
			}
		}(w)
	}
	wg.Wait()

	// Any difference means the released arena was still reachable.
	sameCells(t, out, want, 0)
}

// TestPutResultDropsOversized: the pool must not retain maps past the size
// cap, and pooled maps must come back empty.
func TestPutResultDropsOversized(t *testing.T) {
	r := GetResult(1)
	r.Add(colKey(1), colSummary(rand.New(rand.NewSource(1))))
	PutResult(r)
	r2 := GetResult(1)
	if r2.Len() != 0 {
		t.Fatalf("pooled result not cleared: %d cells", r2.Len())
	}
	PutResult(r2)

	big := NewResultCap(maxPooledResultCells + 1)
	for i := 0; i <= maxPooledResultCells; i++ {
		big.Cells[cell.MustKey(fmt.Sprintf("g%06d", i), "2021-06-01", temporal.Day)] = cell.Summary{}
	}
	PutResult(big) // must be dropped, not pooled
	r3 := GetResult(1)
	if r3.Len() != 0 {
		t.Fatalf("oversized map re-emerged from pool with %d cells", r3.Len())
	}
	PutResult(r3)
}

// BenchmarkResultMergeSteadyState is the allocation gate for the pooled merge
// path: with warm pools, folding node replies into a columnar accumulator and
// recycling everything must run at 0 allocs/op.
func BenchmarkResultMergeSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	// Node replies are built once and only read during merges, mirroring the
	// coordinator contract (reply summaries are shared, never mutated).
	const parts, keysPerPart = 16, 64
	replies := make([]Result, parts)
	for p := range replies {
		replies[p] = NewResult()
		for i := 0; i < keysPerPart; i++ {
			replies[p].Add(colKey(rng.Intn(128)), colSummary(rng))
		}
	}

	warm := func() {
		c := GetColumnar()
		for _, rep := range replies {
			c.MergeResult(rep)
		}
		r := c.ToResult()
		c.Release()
		PutResult(r)
	}
	// Warm the pools (and pre-grow arena/index/map capacities) so the timed
	// region measures the steady state, not first-touch growth.
	for i := 0; i < 16; i++ {
		warm()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := GetColumnar()
		for _, rep := range replies {
			c.MergeResult(rep)
		}
		c.Release()
	}
}
