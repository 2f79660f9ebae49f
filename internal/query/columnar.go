package query

// The pooled, columnar side of the Result lifecycle. The coordinator's merge
// path (tournament fan-in, scatter accumulation, coalescer demux) runs
// entirely on structures from these pools, so the steady state of a warm
// cluster merges node replies without allocating: summaries land in a
// columnar cell arena (cell.SummaryBatch) addressed by a key index
// (cell.Index), partials merge as columnar gathers, and only the final
// materialization (ToResult) builds the map the public API returns — one map,
// its summaries stored in place.
//
// Pool-safety rules (mirroring internal/wire's GetBuf/PutBuf):
//
//  1. Release/PutResult return storage to a pool: the caller must not touch
//     the value afterwards, and nothing returned to a caller may alias pooled
//     storage. ToResult guarantees this by materializing into a fresh map.
//  2. Oversized carcasses are dropped, not pooled (maxPooledResultCells), so
//     one giant query cannot pin its arena behind every later small one.
//  3. Summaries are copied in and out by value; histogram sets read from
//     inputs are shared, never mutated (see Result).

import (
	"sync"

	"stash/internal/cell"
	"stash/internal/obs"
)

// maxPooledResultCells bounds the row capacity of arenas (and the size of
// result maps) returned to the pools; larger ones are left for the GC.
const maxPooledResultCells = 1 << 14

// Pool traffic counters: a hit is a reuse, a miss is a fresh allocation.
// Exposed at /metrics so the steady-state claim (hits >> misses after warmup)
// is observable in production.
var (
	mResultPoolHit  = poolCounter("hit")
	mResultPoolMiss = poolCounter("miss")
)

func poolCounter(outcome string) *obs.Counter {
	r := obs.Default()
	r.Help("stash_result_pool_total", "Result/arena pool acquisitions by outcome (hit: reused, miss: allocated).")
	return r.Counter("stash_result_pool_total", "outcome", outcome)
}

// ColumnarResult is a mergeable aggregation intermediate: cell keys in a flat
// slice, their aggregates in a columnar arena, and a cell.Index mapping key ->
// row. It is the representation the coordinator merges in; Results (the
// public map form) convert in at the leaves and out once at the end.
//
// Distributions, when the pipeline keeps them, ride in a side table by key,
// exactly as on Result; the arena itself is stats only.
type ColumnarResult struct {
	keys    []cell.Key
	batch   cell.SummaryBatch
	index   cell.Index
	hists   map[cell.Key]*cell.Hists
	scratch []int32 // row-mapping buffer reused across MergeColumnar calls
}

var columnarPool sync.Pool

// GetColumnar returns an empty ColumnarResult from the pool.
func GetColumnar() *ColumnarResult {
	if v := columnarPool.Get(); v != nil {
		mResultPoolHit.Inc()
		return v.(*ColumnarResult)
	}
	mResultPoolMiss.Inc()
	return &ColumnarResult{}
}

// Release resets the result and returns it to the pool. The caller must not
// use c afterwards. Arenas that grew past maxPooledResultCells are dropped.
func (c *ColumnarResult) Release() {
	if c == nil {
		return
	}
	if cap(c.keys) > maxPooledResultCells {
		return
	}
	c.Reset()
	columnarPool.Put(c)
}

// Reset empties the result for reuse, keeping capacity.
func (c *ColumnarResult) Reset() {
	c.index.Reset(len(c.keys))
	c.keys = c.keys[:0]
	c.batch.Reset()
	clear(c.hists)
}

// Len returns the number of distinct cells accumulated.
func (c *ColumnarResult) Len() int { return len(c.keys) }

// rowOrNew returns the arena row of k, appending a fresh (empty) row when the
// key is new.
func (c *ColumnarResult) rowOrNew(k cell.Key) int32 {
	r, isNew := c.index.GetOrInsert(k, int32(len(c.keys)))
	if isNew {
		c.keys = append(c.keys, k)
		c.batch.AppendRow()
	}
	return r
}

// AddCell folds one cell in: its summary, and the distributions kept beside
// it (nil for none). Both are only read.
func (c *ColumnarResult) AddCell(k cell.Key, s *cell.Summary, h *cell.Hists) {
	before := len(c.keys)
	row := c.rowOrNew(k)
	c.batch.MergeSummaryAt(int(row), s)
	if h != nil || len(c.hists) > 0 {
		c.foldHists(k, row, int(row) >= before, h)
	}
}

// foldHists brings the side table up to date after row took another partial
// of k whose distributions are h: a first partial's set is aliased, a later
// one folds into a private clone.
func (c *ColumnarResult) foldHists(k cell.Key, row int32, first bool, h *cell.Hists) {
	switch cur := c.hists[k]; {
	case first:
		putHists(&c.hists, k, h)
	case cur != nil || h != nil:
		merged := c.batch.RowSummary(int(row))
		putHists(&c.hists, k, foldedHists(cur, h, &merged))
	}
}

// MergeResult folds a Result's cells in. The caller keeps ownership of the
// map.
func (c *ColumnarResult) MergeResult(o Result) {
	for k, s := range o.Cells {
		c.AddCell(k, &s, o.Hists[k])
	}
}

// MergeColumnar folds another columnar result in as a columnar gather: o's
// keys map to destination rows once, then every lane streams array-to-array
// (cell.SummaryBatch.MergeRows). o is only read.
func (c *ColumnarResult) MergeColumnar(o *ColumnarResult) {
	if o.Len() == 0 {
		return
	}
	if cap(c.scratch) < len(o.keys) {
		c.scratch = make([]int32, len(o.keys))
	}
	dst := c.scratch[:len(o.keys)]
	before := len(c.keys)
	for i, k := range o.keys {
		dst[i] = c.rowOrNew(k)
	}
	c.batch.MergeRows(dst, &o.batch)
	if len(c.hists) > 0 || len(o.hists) > 0 {
		for i, k := range o.keys {
			c.foldHists(k, dst[i], int(dst[i]) >= before, o.hists[k])
		}
	}
}

// ToResult materializes the accumulated cells as a Result in freshly
// allocated maps: nothing in the returned result aliases the arena, so
// Release-ing c afterwards can never reach it.
func (c *ColumnarResult) ToResult() Result {
	r := NewResultCap(len(c.keys))
	for i, k := range c.keys {
		r.Cells[k] = c.batch.RowSummary(i)
	}
	if len(c.hists) > 0 {
		r.Hists = make(map[cell.Key]*cell.Hists, len(c.hists))
		for k, h := range c.hists {
			r.Hists[k] = h
		}
	}
	return r
}

// --- pooled scalar Results ---

// resultMapPool recycles the Cells maps of short-lived intermediate Results:
// node replies (the graph's GetBatch draws its reply here and the
// coordinator's fan-in returns it after the columnar merge), coalescer demux
// slices, scatter staging. A summary is stored in its map slot, so a recycled
// map is a recycled reply: the answer map ToResult builds is the only map a
// warm query allocates.
var resultMapPool sync.Pool

// GetResult returns an empty Result backed by a pooled cells map, or by a
// fresh one sized for n cells when the pool is empty. Callers hand it to a
// consumer that either keeps it (never pool a retained result) or recycles it
// with PutResult.
func GetResult(n int) Result {
	if v := resultMapPool.Get(); v != nil {
		mResultPoolHit.Inc()
		return Result{Cells: v.(map[cell.Key]cell.Summary)}
	}
	mResultPoolMiss.Inc()
	return NewResultCap(n)
}

// PutResult clears r's cells map and returns it to the pool. The caller must
// own r exclusively (no other holder of the same map) and must not use it
// afterwards. Oversized maps are dropped so one wide query cannot pin a huge
// bucket array forever.
func PutResult(r Result) {
	if r.Cells == nil || len(r.Cells) > maxPooledResultCells {
		return
	}
	clear(r.Cells)
	resultMapPool.Put(r.Cells)
}

// Reset empties the result in place for reuse: cells cleared (map retained),
// distributions and coverage dropped.
func (r *Result) Reset() {
	clear(r.Cells)
	r.Hists = nil
	r.Coverage = Coverage{}
}
