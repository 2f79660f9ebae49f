package query

// The pooled, columnar side of the Result lifecycle. The coordinator's merge
// path (tournament fan-in, scatter accumulation, coalescer demux) runs
// entirely on structures from these pools, so the steady state of a warm
// cluster merges node replies without allocating: summaries land in a
// columnar cell arena (cell.SummaryBatch) addressed by an open-addressing key
// index, partials merge as columnar gathers, and only the final
// materialization (ToResult) builds the scalar map the public API returns.
//
// Pool-safety rules (mirroring internal/wire's GetBuf/PutBuf):
//
//  1. Release/PutResult return storage to a pool: the caller must not touch
//     the value afterwards, and nothing returned to a caller may alias pooled
//     storage. ToResult guarantees this by materializing into fresh maps.
//  2. Oversized carcasses are dropped, not pooled (maxPooledResultCells), so
//     one giant query cannot pin its arena behind every later small one.
//  3. Summaries READ from inputs are shared, never mutated (the Result
//     immutability convention); only the pooled arena itself is recycled.

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
// slice, their aggregates in a columnar arena, and an open-addressing hash
// index mapping key -> row. It is the representation the coordinator merges
// in; Results (the public map form) convert in at the leaves and out once at
// the end.
//
// Summaries carrying histograms cannot live in the arena (batches are
// stats-only); they take the scalar spill path and fold in at ToResult.
type ColumnarResult struct {
	keys    []cell.Key
	batch   cell.SummaryBatch
	index   []int32 // open addressing, power-of-two size, -1 = empty
	spill   map[cell.Key]cell.Summary
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
	c.keys = c.keys[:0]
	c.batch.Reset()
	for i := range c.index {
		c.index[i] = -1
	}
	clear(c.spill)
}

// Len returns the number of distinct cells accumulated.
func (c *ColumnarResult) Len() int { return len(c.keys) + len(c.spill) }

// row returns the arena row of k, or -1 when absent.
func (c *ColumnarResult) row(k cell.Key) int32 {
	if len(c.index) == 0 {
		return -1
	}
	mask := uint64(len(c.index) - 1)
	for slot := k.Hash() & mask; ; slot = (slot + 1) & mask {
		r := c.index[slot]
		if r == -1 {
			return -1
		}
		if c.keys[r] == k {
			return r
		}
	}
}

// rowOrNew returns the arena row of k, appending a fresh (empty) row when the
// key is new.
func (c *ColumnarResult) rowOrNew(k cell.Key) int32 {
	// Grow at 3/4 load so probe chains stay short.
	if 4*(len(c.keys)+1) > 3*len(c.index) {
		c.grow()
	}
	mask := uint64(len(c.index) - 1)
	for slot := k.Hash() & mask; ; slot = (slot + 1) & mask {
		r := c.index[slot]
		if r == -1 {
			r = int32(len(c.keys))
			c.keys = append(c.keys, k)
			c.batch.AppendRow()
			c.index[slot] = r
			return r
		}
		if c.keys[r] == k {
			return r
		}
	}
}

// grow rebuilds the index at double size (minimum 16 slots) and reinserts
// every existing key.
func (c *ColumnarResult) grow() {
	n := 2 * len(c.index)
	if n < 16 {
		n = 16
	}
	if cap(c.index) >= n {
		c.index = c.index[:n]
	} else {
		c.index = make([]int32, n)
	}
	for i := range c.index {
		c.index[i] = -1
	}
	mask := uint64(n - 1)
	for r, k := range c.keys {
		slot := k.Hash() & mask
		for c.index[slot] != -1 {
			slot = (slot + 1) & mask
		}
		c.index[slot] = int32(r)
	}
}

// AddSummary folds one (key, summary) pair in. The summary is only read;
// histogram-bearing summaries take the scalar spill path (clone-on-merge, the
// same convention as Result.Add).
func (c *ColumnarResult) AddSummary(k cell.Key, s cell.Summary) {
	if len(s.Hists) > 0 {
		if c.spill == nil {
			c.spill = make(map[cell.Key]cell.Summary, 4)
		}
		cur, ok := c.spill[k]
		if !ok {
			c.spill[k] = s
			return
		}
		merged := cur.Clone()
		merged.Merge(s)
		c.spill[k] = merged
		return
	}
	c.batch.MergeSummaryAt(int(c.rowOrNew(k)), s)
}

// MergeResult folds a scalar Result's cells in. The result's summaries are
// only read and may be shared; the caller keeps ownership of the map.
func (c *ColumnarResult) MergeResult(o Result) {
	for k, s := range o.Cells {
		c.AddSummary(k, s)
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
	for i, k := range o.keys {
		dst[i] = c.rowOrNew(k)
	}
	c.batch.MergeRows(dst, &o.batch)
	for k, s := range o.spill {
		c.AddSummary(k, s)
	}
}

// ToResult materializes the accumulated cells as a scalar Result. Every map
// and stats map is freshly allocated: nothing in the returned result aliases
// the arena, so Release-ing c afterwards can never reach it.
func (c *ColumnarResult) ToResult() Result {
	r := NewResultCap(c.Len())
	for i, k := range c.keys {
		r.Cells[k] = c.batch.RowSummary(i)
	}
	for k, s := range c.spill {
		// Add, not assign: a key can be split between the arena (plain
		// partials) and the spill (histogram-bearing partials).
		r.Add(k, s)
	}
	return r
}

// --- pooled scalar Results ---

// resultMapPool recycles the Cells maps of short-lived intermediate Results
// (coalescer demux slices, scatter staging). Only the map is pooled; the
// summary values inside are shared and immutable, so dropping the references
// is all that clearing does.
var resultMapPool sync.Pool

// GetResult returns an empty Result backed by a pooled cells map. Callers
// hand it to a consumer that either keeps it (never pool a retained result)
// or recycles it with PutResult.
func GetResult() Result {
	if v := resultMapPool.Get(); v != nil {
		mResultPoolHit.Inc()
		return Result{Cells: v.(map[cell.Key]cell.Summary)}
	}
	mResultPoolMiss.Inc()
	return NewResult()
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
// coverage zeroed.
func (r *Result) Reset() {
	clear(r.Cells)
	r.Coverage = Coverage{}
}
