package cell

// SummaryBatch is the columnar counterpart of Summary: a batch of cells laid
// out structure-of-arrays, one row per cell and one lane per schema
// attribute, with each lane's aggregates (count/sum/min/max) in their own
// contiguous slices.
//
//	lane Temperature:  counts [c0 c1 c2 ...]   sums [s0 s1 s2 ...]
//	                   mins   [m0 m1 m2 ...]   maxs [M0 M1 M2 ...]
//	lane Humidity:     counts [...]            ...
//
// Merging two batches touches four flat float/int arrays per lane, so the
// inner loop is sequential loads and stores with the bounds checks hoisted —
// the cache-conscious layout the aggregation core's steady state runs on.
// Lanes are the fixed schema: a lane index is an Attr, and a row converts to
// and from a Summary value (RowSummary, MergeSummaryAt) without allocating.
//
// A lane slot with Count == 0 means "attribute absent for this row", exactly
// as in a Summary.
//
// The zero value is an empty batch ready for use. A SummaryBatch is not safe
// for concurrent use.
type SummaryBatch struct {
	rows int

	// [lane][row]. Every lane has the same length, at least rows; the slots
	// from rows up are zero, so appending a row is a counter bump and the
	// sixteen slices are only touched when they run out.
	counts [NumAttrs][]int64
	sums   [NumAttrs][]float64
	mins   [NumAttrs][]float64
	maxs   [NumAttrs][]float64
}

// Rows returns the number of cell rows in the batch.
func (b *SummaryBatch) Rows() int { return b.rows }

// Reset empties the batch for reuse, keeping the lanes so a pooled batch's
// steady state allocates nothing.
func (b *SummaryBatch) Reset() {
	for l := range b.counts {
		clear(b.counts[l][:b.rows])
		clear(b.sums[l][:b.rows])
		clear(b.mins[l][:b.rows])
		clear(b.maxs[l][:b.rows])
	}
	b.rows = 0
}

// AppendRow adds one empty row (every lane slot at Count 0) and returns its
// index.
func (b *SummaryBatch) AppendRow() int {
	if b.rows == len(b.counts[0]) {
		b.extend()
	}
	b.rows++
	return b.rows - 1
}

// extend lengthens every lane (doubling, from 64 rows) with zeroed slots.
func (b *SummaryBatch) extend() {
	n := max(2*b.rows, 64)
	for l := range b.counts {
		b.counts[l] = append(b.counts[l], make([]int64, n-b.rows)...)
		b.sums[l] = append(b.sums[l], make([]float64, n-b.rows)...)
		b.mins[l] = append(b.mins[l], make([]float64, n-b.rows)...)
		b.maxs[l] = append(b.maxs[l], make([]float64, n-b.rows)...)
	}
}

// ObserveAt folds one raw value into (row, lane) — the columnar Stat.Observe.
func (b *SummaryBatch) ObserveAt(lane Attr, row int, v float64) {
	c := b.counts[lane]
	if c[row] == 0 {
		b.mins[lane][row] = v
		b.maxs[lane][row] = v
	} else {
		if v < b.mins[lane][row] {
			b.mins[lane][row] = v
		}
		if v > b.maxs[lane][row] {
			b.maxs[lane][row] = v
		}
	}
	c[row]++
	b.sums[lane][row] += v
}

// MergeStatAt folds one scalar aggregate into (row, lane) — the columnar
// Stat.Merge.
func (b *SummaryBatch) MergeStatAt(lane Attr, row int, st Stat) {
	if st.Count == 0 {
		return
	}
	c := b.counts[lane]
	if c[row] == 0 {
		c[row] = st.Count
		b.sums[lane][row] = st.Sum
		b.mins[lane][row] = st.Min
		b.maxs[lane][row] = st.Max
		return
	}
	c[row] += st.Count
	b.sums[lane][row] += st.Sum
	if st.Min < b.mins[lane][row] {
		b.mins[lane][row] = st.Min
	}
	if st.Max > b.maxs[lane][row] {
		b.maxs[lane][row] = st.Max
	}
}

// MergeSummaryAt folds a scalar summary into an existing row.
func (b *SummaryBatch) MergeSummaryAt(row int, s *Summary) {
	for a := range s.Stats {
		b.MergeStatAt(Attr(a), row, s.Stats[a])
	}
}

// AppendSummary adds a new row holding the scalar summary and returns its
// index.
func (b *SummaryBatch) AppendSummary(s *Summary) int {
	r := b.AppendRow()
	b.MergeSummaryAt(r, s)
	return r
}

// StatAt returns the scalar aggregate at (row, lane); a zero Stat means the
// attribute is absent for that row.
func (b *SummaryBatch) StatAt(lane Attr, row int) Stat {
	if b.counts[lane][row] == 0 {
		return Stat{}
	}
	return Stat{
		Count: b.counts[lane][row],
		Sum:   b.sums[lane][row],
		Min:   b.mins[lane][row],
		Max:   b.maxs[lane][row],
	}
}

// RowSummary returns one row as a scalar Summary value.
func (b *SummaryBatch) RowSummary(row int) (s Summary) {
	for a := range s.Stats {
		s.Stats[a] = b.StatAt(Attr(a), row)
	}
	return s
}

// MergeRows folds every row of o into this batch: o's row i merges into this
// batch's row dstRows[i]. This is the columnar gather at the heart of the
// tournament merge: per lane, four source arrays stream into four destination
// arrays with the bounds checks hoisted out of the row loop.
func (b *SummaryBatch) MergeRows(dstRows []int32, o *SummaryBatch) {
	if len(dstRows) != o.rows {
		panic("cell: MergeRows dstRows length mismatch")
	}
	if o.rows == 0 {
		return
	}
	for l := range o.counts {
		// Hoist the per-lane slices; slicing to len(dstRows) lets the
		// compiler drop the bounds checks in the inner loop.
		oc := o.counts[l][:len(dstRows)]
		os := o.sums[l][:len(dstRows)]
		omin := o.mins[l][:len(dstRows)]
		omax := o.maxs[l][:len(dstRows)]
		dc := b.counts[l]
		ds := b.sums[l]
		dmin := b.mins[l]
		dmax := b.maxs[l]
		for i, dr := range dstRows {
			c := oc[i]
			if c == 0 {
				continue
			}
			if dc[dr] == 0 {
				dc[dr] = c
				ds[dr] = os[i]
				dmin[dr] = omin[i]
				dmax[dr] = omax[i]
				continue
			}
			dc[dr] += c
			ds[dr] += os[i]
			if omin[i] < dmin[dr] {
				dmin[dr] = omin[i]
			}
			if omax[i] > dmax[dr] {
				dmax[dr] = omax[i]
			}
		}
	}
}
