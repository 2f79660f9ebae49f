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
	s := cell.NewSummary()
	for _, attr := range []string{"temperature", "humidity"} {
		for n := rng.Intn(4); n >= 0; n-- {
			s.Observe(attr, rng.NormFloat64()*10)
		}
	}
	return s
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

	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for k, ws := range want.Cells {
		gs, ok := got.Cells[k]
		if !ok {
			t.Fatalf("missing key %v", k)
		}
		for attr, w := range ws.Stats {
			if g := gs.Stats[attr]; !g.ApproxEqual(w, 1e-9) {
				t.Fatalf("key %v attr %q: got %+v want %+v", k, attr, g, w)
			}
		}
	}
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
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for k, ws := range want.Cells {
		for attr, w := range ws.Stats {
			if g := got.Cells[k].Stats[attr]; !g.ApproxEqual(w, 1e-9) {
				t.Fatalf("key %v attr %q: got %+v want %+v", k, attr, g, w)
			}
		}
	}
}

// TestColumnarHistogramSpill: histogram-bearing summaries take the scalar
// spill path, and the outcome — including the hist-completeness rule scalar
// Merge applies — must match folding the same sequence through Result.Add.
func TestColumnarHistogramSpill(t *testing.T) {
	spec := cell.HistogramSpec{Lo: 0, Hi: 100, Buckets: 4}
	histSummary := func(v float64) cell.Summary {
		s := cell.NewSummary()
		s.Observe("temperature", v)
		if err := s.ObserveHist("temperature", v, spec); err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain := cell.NewSummary()
	plain.Observe("temperature", 10)

	// Key 1: two complete hist-bearing partials (hist survives the merge).
	// Key 2: a plain partial plus a hist-bearing one (scalar Merge drops the
	// now-incomplete hist) — exercises the arena/spill split for one key.
	seq := []struct {
		k cell.Key
		s cell.Summary
	}{
		{colKey(1), histSummary(20)},
		{colKey(1), histSummary(60)},
		{colKey(2), plain},
		{colKey(2), histSummary(80)},
	}

	want := NewResult()
	c := GetColumnar()
	for _, e := range seq {
		want.Add(e.k, e.s)
		c.AddSummary(e.k, e.s)
	}
	got := c.ToResult()
	c.Release()

	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for k, ws := range want.Cells {
		gs := got.Cells[k]
		for attr, w := range ws.Stats {
			if g := gs.Stats[attr]; !g.ApproxEqual(w, 1e-9) {
				t.Fatalf("key %v attr %q: got %+v want %+v", k, attr, g, w)
			}
		}
		if len(gs.Hists) != len(ws.Hists) {
			t.Fatalf("key %v: hist sets differ: got %d want %d", k, len(gs.Hists), len(ws.Hists))
		}
		for attr, wh := range ws.Hists {
			if gh := gs.Hists[attr]; gh == nil || gh.Total() != wh.Total() {
				t.Fatalf("key %v hist %q: got %v want total %d", k, attr, gh, wh.Total())
			}
		}
	}
	if h := got.Cells[colKey(1)].Hists["temperature"]; h == nil || h.Total() != 2 {
		t.Fatalf("complete histogram did not survive the spill merge: %v", h)
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
		c.AddSummary(k, s)
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
					s := cell.NewSummary()
					s.Observe("temperature", -1e9)
					cc.AddSummary(colKey(lrng.Intn(200)), s)
				}
				r := cc.ToResult()
				cc.Release()
				PutResult(r)
			}
		}(w)
	}
	wg.Wait()

	if out.Len() != want.Len() {
		t.Fatalf("released arena reachable: len = %d, want %d", out.Len(), want.Len())
	}
	for k, ws := range want.Cells {
		gs := out.Cells[k]
		for attr, w := range ws.Stats {
			if g := gs.Stats[attr]; !g.ApproxEqual(w, 0) {
				t.Fatalf("released arena reachable: key %v attr %q mutated to %+v (want %+v)", k, attr, g, w)
			}
		}
	}
}

// TestPutResultDropsOversized: the pool must not retain maps past the size
// cap, and pooled maps must come back empty.
func TestPutResultDropsOversized(t *testing.T) {
	r := GetResult()
	r.Add(colKey(1), colSummary(rand.New(rand.NewSource(1))))
	PutResult(r)
	r2 := GetResult()
	if r2.Len() != 0 {
		t.Fatalf("pooled result not cleared: %d cells", r2.Len())
	}
	PutResult(r2)

	big := NewResultCap(maxPooledResultCells + 1)
	for i := 0; i <= maxPooledResultCells; i++ {
		big.Cells[cell.MustKey(fmt.Sprintf("g%06d", i), "2021-06-01", temporal.Day)] = cell.Summary{}
	}
	PutResult(big) // must be dropped, not pooled
	r3 := GetResult()
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
