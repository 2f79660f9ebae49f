package cell

import (
	"math/rand"
	"testing"
)

// randBatchSummary builds a scalar summary with a random subset of attrs and
// a few observations each, deterministically from rng.
func randBatchSummary(rng *rand.Rand) (s Summary) {
	for a := range s.Stats {
		if rng.Intn(3) == 0 {
			continue // absent lane for this row
		}
		for n := rng.Intn(5); n >= 0; n-- {
			s.Observe(Attr(a), rng.NormFloat64()*50)
		}
	}
	return s
}

func summariesEqual(t *testing.T, got, want Summary, eps float64) {
	t.Helper()
	for a, ws := range want.Stats {
		if gs := got.Stats[a]; !gs.ApproxEqual(ws, eps) {
			t.Fatalf("attr %v: got %+v want %+v", Attr(a), gs, ws)
		}
	}
}

// TestSummaryBatchRoundTrip: append scalar summaries, read rows back —
// bit-exact (a single summary lands in an empty row by copy, no reordering).
func TestSummaryBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var b SummaryBatch
	var want []Summary
	for i := 0; i < 64; i++ {
		s := randBatchSummary(rng)
		want = append(want, s)
		if got := b.AppendSummary(&s); got != i {
			t.Fatalf("row %d appended at %d", i, got)
		}
	}
	if b.Rows() != len(want) {
		t.Fatalf("rows = %d, want %d", b.Rows(), len(want))
	}
	for i, w := range want {
		summariesEqual(t, b.RowSummary(i), w, 0)
	}
}

// TestSummaryBatchMergeMatchesScalar: merging a summary into an occupied row
// must agree with scalar Summary.Merge.
func TestSummaryBatchMergeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a, c := randBatchSummary(rng), randBatchSummary(rng)
		var b SummaryBatch
		row := b.AppendSummary(&a)
		b.MergeSummaryAt(row, &c)

		want := a
		want.Merge(c)
		summariesEqual(t, b.RowSummary(row), want, 0)
	}
}

// TestSummaryBatchMergeRows: the columnar gather must agree with row-by-row
// scalar merging, including rows that fan into the same destination.
func TestSummaryBatchMergeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var dst, src SummaryBatch
	nDst, nSrc := 8, 24
	wants := make([]Summary, nDst)
	for i := 0; i < nDst; i++ {
		s := randBatchSummary(rng)
		dst.AppendSummary(&s)
		wants[i] = s
	}
	dstRows := make([]int32, nSrc)
	for i := 0; i < nSrc; i++ {
		s := randBatchSummary(rng)
		src.AppendSummary(&s)
		d := int32(rng.Intn(nDst))
		dstRows[i] = d
		wants[d].Merge(s)
	}
	dst.MergeRows(dstRows, &src)
	for i, w := range wants {
		summariesEqual(t, dst.RowSummary(i), w, 1e-12)
	}
}

// TestSummaryBatchLateLane: an attribute first observed on a later row must
// leave earlier rows without it, and Reset must empty every lane.
func TestSummaryBatchLateLane(t *testing.T) {
	var b SummaryBatch
	r0 := b.AppendRow()
	b.ObserveAt(Temperature, r0, 5)
	r1 := b.AppendRow()
	b.ObserveAt(Snow, r1, 9)

	s0 := b.RowSummary(r0)
	if _, ok := s0.Stat("snow"); ok {
		t.Fatal("a later row's lane leaked a stat into row 0")
	}
	s1 := b.RowSummary(r1)
	if st, _ := s1.Stat("snow"); st.Count != 1 || st.Sum != 9 {
		t.Fatalf("late lane row 1 = %+v", st)
	}

	b.Reset()
	if b.Rows() != 0 {
		t.Fatalf("rows after reset = %d", b.Rows())
	}
	r := b.AppendRow()
	if s := b.RowSummary(r); !s.Empty() {
		t.Fatalf("reused batch invented stats: %+v", s.Stats)
	}
}

// FuzzSummaryBatchRoundTrip round-trips randomized scalar summaries through
// the columnar representation and cross-checks a two-sided merge against the
// scalar algebra: batch(a) merged with batch(b) must equal Summary a.Merge(b)
// within float tolerance.
func FuzzSummaryBatchRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(99), uint8(17))
	f.Add(int64(-4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows := int(n%32) + 1
		var ba, bb SummaryBatch
		as := make([]Summary, rows)
		bs := make([]Summary, rows)
		for i := 0; i < rows; i++ {
			as[i] = randBatchSummary(rng)
			bs[i] = randBatchSummary(rng)
			ba.AppendSummary(&as[i])
			bb.AppendSummary(&bs[i])
		}
		// Round trip: row i must read back as as[i] exactly.
		for i := 0; i < rows; i++ {
			summariesEqual(t, ba.RowSummary(i), as[i], 0)
		}
		// Merge equivalence: identity gather of bb into ba == scalar merges.
		dstRows := make([]int32, rows)
		for i := range dstRows {
			dstRows[i] = int32(i)
		}
		ba.MergeRows(dstRows, &bb)
		for i := 0; i < rows; i++ {
			want := as[i]
			want.Merge(bs[i])
			summariesEqual(t, ba.RowSummary(i), want, 1e-12)
		}
	})
}
