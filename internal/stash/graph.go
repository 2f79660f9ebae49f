// Package stash implements the paper's primary contribution: the STASH
// graph, a distributed in-memory cache of hierarchically aggregated
// spatiotemporal cells (paper §IV, §V).
//
// One Graph instance is the per-node shard of the logical G_STASH =
// (V, {E_H, E_L}). Vertices (Cells) are records in per-stripe slabs behind one
// flat key index each — the paper's "map of distributed hash tables" with the
// level folded into the 16-byte key — so locating a cell costs one probe of a
// small pointer-free table. Edges are never materialized: hierarchical and
// lateral relationships are derived from the cell-key algebra in package
// cell, the paper's "composable vertex discovery schemes".
//
// The Graph also carries the two policies the paper builds on top of the
// data structure: freshness-based cell replacement with neighborhood
// dispersion (§V-C) and the precision-level map (PLM) that tracks
// completeness against the backing store (§IV-D).
//
// Concurrency: the store is hash-striped. Each stripe owns a private record
// slab and index under its own mutex, so requests touching disjoint
// stripes proceed in parallel across a node's workers (memcached-style lock
// striping). The replacement *policy* stays global — logical time, stats,
// and the eviction trigger are process-wide atomics, and eviction ranks
// victims across all stripes — so striping changes scalability, not
// semantics. See DESIGN.md "Concurrency model".
package stash

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/obs"
	"stash/internal/query"
	"stash/internal/simnet"
	"stash/internal/temporal"
)

// Config tunes a STASH graph shard. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// Capacity is the maximum number of cells held in memory (the paper's
	// configurable threshold on total Cells).
	Capacity int
	// SafeFraction is the fill level eviction drives the graph back to once
	// Capacity is breached (the paper's "safe limit").
	SafeFraction float64
	// FreshInc is f_inc: the freshness added to a cell on direct access.
	FreshInc float64
	// DisperseFraction is the share of FreshInc granted to the
	// spatiotemporal neighborhood of an accessed region.
	DisperseFraction float64
	// HalfLife is the freshness decay half-life in logical ticks (one tick
	// advances per graph operation batch).
	HalfLife int64
	// Disperse enables neighborhood freshness dispersion. Disabling it is
	// the abl-freshness ablation: replacement degenerates to per-cell
	// frequency/recency with no region awareness.
	Disperse bool
	// Stripes is the lock-striping factor: the store is split into this many
	// hash-sharded segments, each under its own mutex, so concurrent workers
	// contend only when their keys collide on a stripe. Rounded up to a
	// power of two; zero selects the default, 1 degenerates to the original
	// single-lock graph (useful as a benchmark baseline).
	Stripes int
	// Model and Sleeper price the in-memory work (cell touches) so that
	// experiments account for STASH's own overhead (paper Fig. 6c). A nil
	// Sleeper disables cost accounting.
	Model   simnet.Model
	Sleeper simnet.Sleeper
	// Tier labels this shard's series in the process metric registry
	// (stash_cache_*_total{tier=...}). The cluster uses "local" for owner
	// shards and "guest" for replica shards; the front-end uses
	// "frontend". Empty defaults to "local".
	Tier string
}

// DefaultConfig returns the configuration used by the experiment harness.
func DefaultConfig() Config {
	return Config{
		Capacity:         200_000,
		SafeFraction:     0.90,
		FreshInc:         1.0,
		DisperseFraction: 0.25,
		HalfLife:         10_000,
		Disperse:         true,
		Stripes:          16,
	}
}

// maxStripes bounds the striping factor: beyond this the per-stripe maps are
// too sparse to matter and the per-stripe metric series get noisy.
const maxStripes = 256

// Stats are cumulative counters of one graph shard.
type Stats struct {
	Hits      int64 // cells served from memory
	Misses    int64 // cells requested but absent (or stale)
	Inserts   int64 // cells inserted
	Evictions int64 // cells evicted by replacement
}

// record is everything the graph keeps for one resident cell, in one place:
// the cell (key, summary, freshness state), the PLM residency epoch — the
// invalidation epoch that was current when the cell was last inserted, which
// is what a later MarkStale is compared against — and the distributions kept
// beside the summary, nil unless the pipeline maintains histograms.
type record struct {
	cell.Cell
	epoch int64
	hists *cell.Hists
}

// recChunk is the slab granule. Past its first rows a stripe's slab grows a
// chunk of this many records at a time, so a large stripe never copies what
// it holds (a chunk is under 6 KiB; a full stripe of a 200k-cell graph would
// otherwise move megabytes under its lock).
const (
	recChunkBits = 5
	recChunk     = 1 << recChunkBits
)

// stripe is one hash shard of the store under its own lock: a slab of records,
// dense in rows [0, n), behind a key -> row index sized to the slab's
// capacity. A cell lives in exactly one stripe (chosen by key hash), so
// holding the stripe lock protects the index, the slab and every field of
// every record in it.
//
// The slab is two-tier. The first rows live in head, one slice that is
// regrown by copying — to exactly what the batch at hand needs — until it
// reaches maxHead rows; rows past it live in fixed chunks. A 16-stripe
// graph holding a few hundred cells is therefore a few dozen records per
// stripe and pays for those, not for a chunk or two each: on the benchmark's
// warm workloads (34 cells a stripe) chunks alone were 3.0 MB of slab for
// 1.6 MB of records.
type stripe struct {
	mu    sync.Mutex
	idx   int // position in Graph.stripes, for the per-stripe gauges
	index cell.Index
	head  []record // rows [0, len(head)); len is its capacity in rows
	slab  []*[recChunk]record
	n     int
}

// capacity returns the rows the slab has room for.
func (s *stripe) capacity() int { return len(s.head) + len(s.slab)*recChunk }

// at returns the record in a row below capacity. Callers hold s.mu.
func (s *stripe) at(row int32) *record {
	if int(row) < len(s.head) {
		return &s.head[row]
	}
	r := int(row) - len(s.head)
	return &s.slab[r>>recChunkBits][r&(recChunk-1)]
}

// find returns k's record, or nil when k is not resident. Callers hold s.mu.
func (s *stripe) find(k cell.Key) *record {
	row, ok := s.index.Get(k)
	if !ok {
		return nil
	}
	return s.at(row)
}

// The head is allocated at minHead rows at least and regrown up to maxHead:
// beyond that a copy under the stripe lock is no longer small change.
const (
	minHead = 8
	maxHead = 2 * recChunk
)

// grow makes room for at least one more record; more is how many inserts the
// batch at hand may still make (1 when unknown), which sizes a regrown head.
func (s *stripe) grow(more int) {
	if len(s.slab) == 0 && len(s.head) < maxHead {
		head := make([]record, min(maxHead, max(s.n+more, 2*len(s.head), minHead)))
		copy(head, s.head[:s.n])
		s.head = head
	} else {
		s.slab = append(s.slab, new([recChunk]record))
	}
	s.index.Reserve(s.capacity())
}

// add makes k resident in a fresh zeroed record and returns it; more is as
// for grow. Callers hold s.mu and have checked that k is absent.
func (s *stripe) add(k cell.Key, more int) *record {
	if s.n == s.capacity() {
		s.grow(more)
	}
	row := int32(s.n)
	s.index.GetOrInsert(k, row)
	s.n++
	r := s.at(row)
	r.Key = k
	return r
}

// drop removes k's record; the last row moves into the hole so the slab stays
// dense, and chunks left wholly unused are released. It reports whether k was
// resident. Callers hold s.mu.
func (s *stripe) drop(k cell.Key) bool {
	row, ok := s.index.Delete(k)
	if !ok {
		return false
	}
	s.n--
	last := s.at(int32(s.n))
	if int(row) != s.n {
		*s.at(row) = *last
		s.index.Set(last.Key, row)
	}
	*last = record{}
	// One empty chunk stays as slack, so a stripe hovering at a chunk boundary
	// does not allocate on every other insert.
	if keep := (max(s.n-len(s.head), 0)+recChunk-1)>>recChunkBits + 1; keep < len(s.slab) {
		s.slab[keep] = nil
		s.slab = s.slab[:keep]
	}
	return true
}

// Graph is one node's shard of the STASH graph. It is safe for concurrent
// use: the store is lock-striped and all policy state is atomic.
type Graph struct {
	cfg     Config
	decay   cell.DecayFunc
	stripes []*stripe
	mask    uint32 // len(stripes)-1; len is a power of two
	plm     *PLM
	om      *tierMetrics // process-registry handles, resolved once per tier
	gauges  []*obs.Gauge // per-stripe occupancy, summed across graphs of the tier

	tick     atomic.Int64 // logical time, one advance per operation batch
	size     atomic.Int64 // resident cells across all stripes
	levelLen [cell.NumLevels]atomic.Int64
	// levelSpan bounds the temporal buckets ever resident at each level. It
	// only widens, so it may overstate what is resident but never misses a
	// cell: dispersion uses it to skip temporal neighbors nothing can hold.
	levelSpan [cell.NumLevels]bucketSpan
	evicting  atomic.Bool // single-flight guard for the global eviction pass

	hits      atomic.Int64
	misses    atomic.Int64
	inserts   atomic.Int64
	evictions atomic.Int64
}

// NewGraph returns an empty shard with the given configuration.
func NewGraph(cfg Config) *Graph {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultConfig().Capacity
	}
	if cfg.SafeFraction <= 0 || cfg.SafeFraction > 1 {
		cfg.SafeFraction = DefaultConfig().SafeFraction
	}
	if cfg.FreshInc <= 0 {
		cfg.FreshInc = DefaultConfig().FreshInc
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = DefaultConfig().Stripes
	}
	if cfg.Stripes > maxStripes {
		cfg.Stripes = maxStripes
	}
	n := 1
	for n < cfg.Stripes {
		n <<= 1
	}
	cfg.Stripes = n
	if cfg.Tier == "" {
		cfg.Tier = "local"
	}
	g := &Graph{
		cfg:     cfg,
		decay:   cell.ExpDecay(cfg.HalfLife),
		stripes: make([]*stripe, n),
		mask:    uint32(n - 1),
		om:      metricsForTier(cfg.Tier),
		gauges:  stripeGauges(cfg.Tier, n),
	}
	g.plm = &PLM{g: g}
	for i := range g.stripes {
		g.stripes[i] = &stripe{idx: i}
	}
	for l := range g.levelSpan {
		g.levelSpan[l].lo.Store(math.MaxInt32)
		g.levelSpan[l].hi.Store(math.MinInt32)
	}
	return g
}

// bucketSpan is a widen-only [lo, hi] range of temporal buckets; empty while
// lo > hi.
type bucketSpan struct{ lo, hi atomic.Int32 }

func (s *bucketSpan) widen(b int32) {
	for lo := s.lo.Load(); b < lo && !s.lo.CompareAndSwap(lo, b); lo = s.lo.Load() {
	}
	for hi := s.hi.Load(); b > hi && !s.hi.CompareAndSwap(hi, b); hi = s.hi.Load() {
	}
}

// Stripes returns the (normalized) lock-striping factor.
func (g *Graph) Stripes() int { return len(g.stripes) }

// stripeIndex hashes a key onto its stripe index. It takes the high half of
// the key hash; open-addressing tables keyed by the same hash mask the low
// half, so the two stay independent.
func (g *Graph) stripeIndex(k cell.Key) uint32 {
	return uint32(k.Hash()>>32) & g.mask
}

// stripeFor hashes a key onto its stripe.
func (g *Graph) stripeFor(k cell.Key) *stripe {
	return g.stripes[g.stripeIndex(k)]
}

// lockStripe acquires a stripe lock, counting contended acquisitions so
// /metrics shows when the striping factor is too low for the worker count.
func (g *Graph) lockStripe(s *stripe) {
	if s.mu.TryLock() {
		return
	}
	g.om.contention.Inc()
	s.mu.Lock()
}

// lockAll acquires every stripe lock in index order (whole-graph scans:
// clique assembly). Counterpart unlockAll releases in reverse.
func (g *Graph) lockAll() {
	for _, s := range g.stripes {
		g.lockStripe(s)
	}
}

func (g *Graph) unlockAll() {
	for i := len(g.stripes) - 1; i >= 0; i-- {
		g.stripes[i].mu.Unlock()
	}
}

// Len returns the number of cells currently cached.
func (g *Graph) Len() int { return int(g.size.Load()) }

// LevelLen returns the number of cells cached at one hierarchy level.
func (g *Graph) LevelLen(level int) int {
	if level < 0 || level >= cell.NumLevels {
		return 0
	}
	return int(g.levelLen[level].Load())
}

// StripeLen returns the number of cells resident in one stripe.
func (g *Graph) StripeLen(i int) int {
	if i < 0 || i >= len(g.stripes) {
		return 0
	}
	s := g.stripes[i]
	g.lockStripe(s)
	defer s.mu.Unlock()
	return s.n
}

// Stats returns a snapshot of the shard's counters.
func (g *Graph) Stats() Stats {
	return Stats{
		Hits:      g.hits.Load(),
		Misses:    g.misses.Load(),
		Inserts:   g.inserts.Load(),
		Evictions: g.evictions.Load(),
	}
}

// Tick returns the current logical time.
func (g *Graph) Tick() int64 { return g.tick.Load() }

// PLM exposes the shard's precision-level map.
func (g *Graph) PLM() *PLM {
	return g.plm
}

// batchScratch is the working memory of one batched request: the stripe
// grouping, the miss marks, dispersion's membership set and boost list, and
// derivation's pending inserts. Requests borrow one from scratchPool, so a warm
// graph serves a batch without allocating anything but the reply.
type batchScratch struct {
	// Stripe grouping (group): key i hashes to stripe stripeOf[i]; the key
	// indices of stripe s are order[start[s]:start[s+1]], in request order.
	stripeOf []uint8 // maxStripes is 256, so a stripe index fits a byte
	order    []int32
	start    [maxStripes + 1]int32

	missed []bool     // by key index, so the missing list keeps request order
	keys   []cell.Key // Put: the result's keys; disperse: the boost list; evict: the victims
	seen   cell.Index // disperse: requested or already boosted; derive: derived this batch
	// DeriveBatch: the cells derived so far, inserted together at the end.
	derived []derivedCell
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// maxPooledScratchKeys bounds the request size whose scratch goes back to the
// pool, so one giant batch does not pin its buffers behind every small one.
const maxPooledScratchKeys = 1 << 16

func putScratch(sc *batchScratch) {
	if cap(sc.order) <= maxPooledScratchKeys && cap(sc.keys) <= maxPooledScratchKeys {
		clear(sc.derived) // drop the histogram sets it points at
		sc.derived = sc.derived[:0]
		scratchPool.Put(sc)
	}
}

// missing lists the keys marked in sc.missed, in request order; n is their
// count.
func (sc *batchScratch) missing(keys []cell.Key, n int) []cell.Key {
	if n == 0 {
		return nil
	}
	out := make([]cell.Key, 0, n)
	for i, m := range sc.missed {
		if m {
			out = append(out, keys[i])
		}
	}
	return out
}

// resized returns buf with length n, reallocating only when it is too small.
// The contents are unspecified.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// group partitions keys by stripe, preserving per-stripe request order.
// Requests are visual footprints (tens to a few thousand keys) and sit on the
// serve hot path, so the grouping is a counting sort: every key is hashed
// once, then scattered into one shared index arena.
func (sc *batchScratch) group(g *Graph, keys []cell.Key) {
	sc.stripeOf = resized(sc.stripeOf, len(keys))
	sc.order = resized(sc.order, len(keys))
	n := len(g.stripes)
	clear(sc.start[:n+1])
	for i, k := range keys {
		s := g.stripeIndex(k)
		sc.stripeOf[i] = uint8(s)
		sc.start[s+1]++
	}
	var next [maxStripes]int32 // scatter cursor per stripe
	for s := 0; s < n; s++ {
		next[s] = sc.start[s]
		sc.start[s+1] += sc.start[s]
	}
	for i := range keys {
		s := sc.stripeOf[i]
		sc.order[next[s]] = int32(i)
		next[s]++
	}
}

// eachGroup calls fn once for every stripe the last group call assigned keys
// to, under that stripe's lock, with the indices (into the grouped key slice)
// of its keys. One stripe lock is held at a time.
func (g *Graph) eachGroup(sc *batchScratch, fn func(s *stripe, idx []int32)) {
	for _, s := range g.stripes {
		if idx := sc.order[sc.start[s.idx]:sc.start[s.idx+1]]; len(idx) > 0 {
			g.lockStripe(s)
			fn(s, idx)
			s.mu.Unlock()
		}
	}
}

// GetBatch serves a region request from the cache: it returns the summaries
// of every requested cell present (and fresh), and the list of missing keys
// the caller must fetch from the backing store. Found cells are touched; if
// dispersion is enabled, the lateral neighbors and parents of the requested
// region receive their freshness share (paper §V-C2).
//
// Keys are grouped by stripe and each stripe lock is taken once per request,
// not once per key. The reply's map comes from query's result pool, at the
// first hit (a request that only misses gets the zero Result): a caller that
// is done with it (the coordinator, once the cells are in its merge arena)
// hands it back with query.PutResult, and one that keeps it just does.
func (g *Graph) GetBatch(keys []cell.Key) (query.Result, []cell.Key) {
	var res query.Result
	if len(keys) == 0 {
		return res, nil
	}
	tick := g.tick.Add(1)
	sc := scratchPool.Get().(*batchScratch)
	defer putScratch(sc)

	sc.missed = resized(sc.missed, len(keys))
	clear(sc.missed)
	nMiss := 0
	stale := g.plm.blocks()
	sc.group(g, keys)
	g.eachGroup(sc, func(s *stripe, idx []int32) {
		for _, i := range idx {
			k := keys[i]
			r := s.find(k)
			if r == nil || stale.covers(k, r.epoch) {
				if r != nil {
					// Stale cell: drop it so the refetch replaces it.
					g.removeLocked(s, k)
				}
				sc.missed[i] = true
				nMiss++
				continue
			}
			r.Touch(tick, g.cfg.FreshInc, g.decay)
			// Negative-cached (empty) cells count as hits but add nothing
			// to the result, matching the disk path's omission of dataless
			// bins.
			if !r.Summary.Empty() {
				if res.Cells == nil {
					res = query.GetResult(len(keys))
				}
				res.Set(k, r.Summary, r.hists)
			}
		}
	})
	missing := sc.missing(keys, nMiss)

	if g.cfg.Disperse {
		g.disperse(sc, tick, keys)
	}
	// One batched atomic add per counter per request, not one per key.
	g.hits.Add(int64(len(keys) - nMiss))
	g.misses.Add(int64(nMiss))
	g.om.hits.Add(int64(len(keys) - nMiss))
	g.om.misses.Add(int64(nMiss))
	g.charge(len(keys))
	return res, missing
}

// disperse grants the neighborhood of the requested region its freshness
// share: every cell that is a lateral neighbor (8 in space, 2 in time) or a
// parent (space, time, both) of a requested cell, is not itself requested,
// and is resident, is boosted once. Only the region boundary matters:
// interior neighbors are themselves requested and already touched.
//
// The candidates are integer arithmetic on the packed labels. "Requested or
// already boosted" is one probe of the scratch key set, and a whole class of
// candidates is skipped when nothing resident can match it: the level it
// lives on holds no cells, or (temporal neighbors) never held one at that
// time. A request against an empty level does no neighbor work at all. Keys
// outside the hierarchy (no validated query produces one) disperse nothing.
// The boost set is computed with no locks held, then applied stripe by
// stripe.
func (g *Graph) disperse(sc *batchScratch, tick int64, keys []cell.Key) {
	inc := g.cfg.FreshInc * g.cfg.DisperseFraction
	if inc <= 0 {
		return
	}
	var occupied [cell.NumLevels]bool
	var lo, hi [cell.NumLevels]int32 // levelSpan, read once
	resident := false
	for l := range occupied {
		occupied[l] = g.levelLen[l].Load() > 0
		lo[l], hi[l] = g.levelSpan[l].lo.Load(), g.levelSpan[l].hi.Load()
		resident = resident || occupied[l]
	}
	if !resident {
		return
	}
	// Room for the request and as many boost candidates without regrowing.
	sc.seen.Reset(2 * len(keys))
	for _, k := range keys {
		sc.seen.GetOrInsert(k, 0)
	}
	sc.keys = sc.keys[:0]
	for _, k := range keys {
		sres, lvl := k.Geohash.Len(), k.Level()
		if sres < 1 || sres > cell.MaxSpatialPrecision || !k.Time.Res.Valid() {
			continue
		}
		// The neighbor kinds are independent: each is computed, and skipped,
		// on its own.
		if occupied[lvl] {
			var ns [8]geohash.Hash
			for _, n := range ns[:k.Geohash.Neighbors(&ns)] {
				sc.candidate(cell.Key{Geohash: n, Time: k.Time})
			}
			// Previous and next label, where the level ever held one.
			b := k.Time.Bucket
			if b > lo[lvl] {
				sc.candidate(cell.Key{Geohash: k.Geohash, Time: temporal.Label{Res: k.Time.Res, Bucket: b - 1}})
			}
			if b < hi[lvl] {
				sc.candidate(cell.Key{Geohash: k.Geohash, Time: temporal.Label{Res: k.Time.Res, Bucket: b + 1}})
			}
		}
		sp, hasSpatial := k.Geohash.Parent()
		if hasSpatial && occupied[lvl-1] {
			sc.candidate(cell.Key{Geohash: sp, Time: k.Time})
		}
		// One temporal step coarser is MaxSpatialPrecision levels down.
		tlvl := lvl - cell.MaxSpatialPrecision
		if tlvl >= 0 && (occupied[tlvl] || hasSpatial && occupied[tlvl-1]) {
			tp, _ := k.Time.Parent()
			if occupied[tlvl] {
				sc.candidate(cell.Key{Geohash: k.Geohash, Time: tp})
			}
			if hasSpatial && occupied[tlvl-1] {
				sc.candidate(cell.Key{Geohash: sp, Time: tp})
			}
		}
	}
	boost := sc.keys
	if len(boost) == 0 {
		return
	}
	sc.group(g, boost)
	g.eachGroup(sc, func(s *stripe, idx []int32) {
		for _, i := range idx {
			if r := s.find(boost[i]); r != nil {
				r.Disperse(tick, inc, g.decay)
			}
		}
	})
}

// candidate queues k for a boost unless it was requested or is queued
// already.
func (sc *batchScratch) candidate(k cell.Key) {
	if _, fresh := sc.seen.GetOrInsert(k, 0); fresh {
		sc.keys = append(sc.keys, k)
	}
}

// Peek returns a cell's summary without touching freshness or dispersing.
// ok is false if the cell is absent or stale.
func (g *Graph) Peek(k cell.Key) (cell.Summary, bool) {
	s := g.stripeFor(k)
	g.lockStripe(s)
	defer s.mu.Unlock()
	r := s.find(k)
	if r == nil || g.plm.blocks().covers(k, r.epoch) {
		return cell.Summary{}, false
	}
	return r.Summary, true
}

// Put inserts (or replaces) the cells of a fetch result, marking them fresh
// in the PLM, then evicts down to the safe limit if the capacity threshold
// was breached. This is the cache-population path measured by the paper's
// maintenance experiment (Fig. 6c). Cells are inserted stripe by stripe,
// one lock acquisition per touched stripe.
func (g *Graph) Put(res query.Result) {
	tick := g.tick.Add(1)
	if res.Len() > 0 {
		sc := scratchPool.Get().(*batchScratch)
		keys := sc.keys[:0]
		for k := range res.Cells {
			keys = append(keys, k)
		}
		sc.keys = keys
		sc.group(g, keys)
		g.eachGroup(sc, func(s *stripe, idx []int32) {
			for j, i := range idx {
				k := keys[i]
				g.insertLocked(s, k, res.Cells[k], res.Hists[k], tick, len(idx)-j)
			}
		})
		putScratch(sc)
	}
	g.maybeEvict()
	g.charge(res.Len())
}

// PutEmpty records that the backing store holds no data for the given keys,
// caching the negative result so repeated queries over sparse regions do not
// re-scan disk. The cells carry empty summaries.
func (g *Graph) PutEmpty(keys []cell.Key) {
	tick := g.tick.Add(1)
	sc := scratchPool.Get().(*batchScratch)
	sc.group(g, keys)
	g.eachGroup(sc, func(s *stripe, idx []int32) {
		for j, i := range idx {
			if s.find(keys[i]) == nil {
				g.insertLocked(s, keys[i], cell.Summary{}, nil, tick, len(idx)-j)
			}
		}
	})
	putScratch(sc)
	g.maybeEvict()
	g.charge(len(keys))
}

// insertLocked inserts or replaces one cell: its record takes the summary by
// value, shares the histogram set (immutable by convention, see query.Result)
// and is stamped current in the PLM. more is how many inserts into s the
// caller's batch may still make, this one included. Callers hold s.mu; k
// hashes to s.
func (g *Graph) insertLocked(s *stripe, k cell.Key, sum cell.Summary, hists *cell.Hists, tick int64, more int) {
	lvl := k.Level()
	if lvl < 0 || lvl >= cell.NumLevels {
		return
	}
	r := s.find(k)
	if r == nil {
		r = s.add(k, more)
		g.size.Add(1)
		g.levelLen[lvl].Add(1)
		g.levelSpan[lvl].widen(k.Time.Bucket)
		g.inserts.Add(1)
		g.om.inserts.Inc()
		g.om.cells.Add(1)
		g.gauges[s.idx].Add(1)
	}
	r.Summary = sum
	r.hists = hists
	r.Touch(tick, g.cfg.FreshInc, g.decay)
	r.epoch = g.plm.epoch.Load()
}

// removeLocked removes one cell. Callers hold s.mu; k hashes to s.
func (g *Graph) removeLocked(s *stripe, k cell.Key) {
	if s.drop(k) {
		g.size.Add(-1)
		g.levelLen[k.Level()].Add(-1)
		g.om.cells.Add(-1)
		g.gauges[s.idx].Add(-1)
	}
}

// Delete removes a cell outright (used when purging stale guest entries).
func (g *Graph) Delete(k cell.Key) {
	s := g.stripeFor(k)
	g.lockStripe(s)
	defer s.mu.Unlock()
	g.removeLocked(s, k)
}

// maybeEvict enforces the capacity threshold: if breached, cells are evicted
// in ascending freshness order until the graph is back at the safe limit
// (paper §V-C2: evict lowest freshness "till the capacity goes below a safe
// limit"). The pass is single-flight (concurrent writers that lose the CAS
// skip it; the winner drives size back down) and stripe-aware: victim
// scores are snapshotted one stripe at a time, ranked globally so the
// freshness ordering matches the single-lock graph exactly, then removed in
// per-stripe batches — at most two lock acquisitions per stripe per pass.
//
// Equal scores rank by key. The cells of one Put share a score, so ties are
// the rule, and without the key the victims among them would follow slab
// order — that is, the map order the Put's result happened to iterate in.
func (g *Graph) maybeEvict() {
	// Re-check after every pass: a writer that lost the CAS while this pass
	// was running has inserted and left, trusting the winner to see it.
	for g.size.Load() > int64(g.cfg.Capacity) {
		if !g.evicting.CompareAndSwap(false, true) {
			return
		}
		g.evictPass()
		g.evicting.Store(false)
	}
}

// evictPass drives the graph down to the safe limit once. The caller holds
// the evicting flag.
func (g *Graph) evictPass() {
	target := int64(float64(g.cfg.Capacity) * g.cfg.SafeFraction)
	need := g.size.Load() - target
	if need <= 0 {
		return
	}
	tick := g.tick.Load()
	type scored struct {
		key   cell.Key
		score float64
	}
	all := make([]scored, 0, g.size.Load())
	for _, s := range g.stripes {
		g.lockStripe(s)
		for row := 0; row < s.n; row++ {
			r := s.at(int32(row))
			all = append(all, scored{key: r.Key, score: r.FreshnessAt(tick, g.decay)})
		}
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score < all[j].score
		}
		return all[i].key.Less(all[j].key)
	})
	if int64(len(all)) < need {
		need = int64(len(all))
	}

	// Group removals by stripe so each stripe lock is taken once.
	sc := scratchPool.Get().(*batchScratch)
	defer putScratch(sc)
	victims := sc.keys[:0]
	for _, v := range all[:need] {
		victims = append(victims, v.key)
	}
	sc.keys = victims
	evicted := int64(0)
	sc.group(g, victims)
	g.eachGroup(sc, func(s *stripe, idx []int32) {
		for _, i := range idx {
			if s.find(victims[i]) != nil {
				g.removeLocked(s, victims[i])
				evicted++
			}
		}
	})
	g.evictions.Add(evicted)
	g.om.evictions.Add(evicted)
}

// Freshness returns a cell's current (decayed) freshness; ok is false if the
// cell is absent.
func (g *Graph) Freshness(k cell.Key) (float64, bool) {
	s := g.stripeFor(k)
	g.lockStripe(s)
	defer s.mu.Unlock()
	r := s.find(k)
	if r == nil {
		return 0, false
	}
	return r.FreshnessAt(g.tick.Load(), g.decay), true
}

// Keys returns every cached key at one level, in unspecified order.
func (g *Graph) Keys(level int) []cell.Key {
	if level < 0 || level >= cell.NumLevels {
		return nil
	}
	out := make([]cell.Key, 0, g.levelLen[level].Load())
	for _, s := range g.stripes {
		g.lockStripe(s)
		for row := 0; row < s.n; row++ {
			if k := s.at(int32(row)).Key; k.Level() == level {
				out = append(out, k)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Snapshot extracts the summaries of the given keys (used for clique
// replication payloads); absent keys are skipped.
func (g *Graph) Snapshot(keys []cell.Key) query.Result {
	res := query.NewResult()
	sc := scratchPool.Get().(*batchScratch)
	defer putScratch(sc)
	sc.group(g, keys)
	g.eachGroup(sc, func(s *stripe, idx []int32) {
		for _, i := range idx {
			if r := s.find(keys[i]); r != nil {
				res.Set(keys[i], r.Summary, r.hists)
			}
		}
	})
	return res
}

// sweep removes every resident cell that doomed selects, stripe by stripe
// under the stripe's lock. doomed may read the record (to ship it, say) but
// not keep the pointer: the row is reused as soon as it returns true.
func (g *Graph) sweep(doomed func(r *record) bool) {
	for _, s := range g.stripes {
		g.lockStripe(s)
		for row := 0; row < s.n; {
			if r := s.at(int32(row)); doomed(r) {
				g.removeLocked(s, r.Key) // the last row moves here: look again
			} else {
				row++
			}
		}
		s.mu.Unlock()
	}
}

// ExtractPartitions removes and returns every resident cell that belongs to
// one of the moved partitions, for warm handoff during a membership change.
// A cell belongs to partition gh[:prefixLen]; only cells at least as fine as
// the partitioning prefix are extracted — such a cell's extent lies entirely
// inside one partition, so its summary is valid verbatim on the new owner.
// Coarser cells are a different story (see DropCoarsePartials) and are left
// untouched here. Negative-cache entries (empty summaries) are extracted too:
// on the new owner they keep sparse regions from re-scanning disk.
//
// The removed cells' records are gone, so the old owner honestly misses on
// these keys after the freeze lifts.
func (g *Graph) ExtractPartitions(prefixLen int, moved map[geohash.Hash]bool) query.Result {
	res := query.NewResult()
	if len(moved) == 0 {
		return res
	}
	stale := g.plm.blocks()
	g.sweep(func(r *record) bool {
		k := r.Key
		if k.Geohash.Len() < prefixLen || !moved[k.Geohash.Prefix(prefixLen)] {
			return false
		}
		// A stale cell (invalidated by ingest, not yet lazily evicted) is
		// removed but never shipped: the new owner's PLM would mark it
		// fresh on insert, laundering stale data.
		if !stale.covers(k, r.epoch) {
			res.Set(k, r.Summary, r.hists)
		}
		return true
	})
	return res
}

// DropCoarsePartials removes cached cells coarser than the partitioning
// prefix whose region extends into any of the given partitions. A coarse
// cell's summary is a per-node partial: it aggregates exactly the extending
// partitions this node owned when the cell was cached. After a membership
// change that set is different — the partial over-counts on a node that lost
// partitions and under-counts on one that gained them — so migrating it (or
// keeping it) would serve wrong answers. It must be dropped and rebuilt from
// the new ownership. Returns the number of cells dropped.
func (g *Graph) DropCoarsePartials(prefixLen int, changed map[geohash.Hash]bool) int {
	if len(changed) == 0 {
		return 0
	}
	dropped := 0
	g.sweep(func(r *record) bool {
		gh := r.Key.Geohash
		if gh.Len() >= prefixLen {
			return false
		}
		for p := range changed {
			if p.HasPrefix(gh) {
				dropped++
				return true
			}
		}
		return false
	})
	return dropped
}

// DeriveFromChildren attempts to compute a missing cell's summary from
// cached finer-resolution cells instead of touching disk (paper §V-B: disk
// access is required only if the missing values "are not available by
// computing from the existing cached values"). The derivation needs a
// complete child cover: all 32 spatial children, or all temporal children,
// resident and fresh. On success the derived cell is inserted and returned;
// a parent whose children are all negative-cached empties derives to an
// empty summary (ok=true), mirroring how a disk scan of the same cell would
// find nothing.
func (g *Graph) DeriveFromChildren(k cell.Key) (cell.Summary, bool) {
	res, unresolved := g.DeriveBatch([]cell.Key{k})
	if len(unresolved) > 0 {
		return cell.Summary{}, false
	}
	return res.Cells[k], true
}

// derivedCell is a cell DeriveBatch computed and has yet to insert.
type derivedCell struct {
	key   cell.Key
	sum   cell.Summary
	hists *cell.Hists
}

// foldCover merges a complete child cover into out: child i of n is
// child(i), and every one must be resident and fresh. It walks the children
// by key arithmetic — no child list exists — and reads each record under its
// stripe's lock. ok is false at the first child that is absent or stale.
func (g *Graph) foldCover(stale staleBlocks, n int, child func(i int) cell.Key, out *derivedCell) (ok bool) {
	var sum cell.Summary
	var hists cell.Hists
	for i := 0; i < n; i++ {
		ck := child(i)
		s := g.stripeFor(ck)
		g.lockStripe(s)
		r := s.find(ck)
		if r == nil || stale.covers(ck, r.epoch) {
			s.mu.Unlock()
			return false
		}
		sum.Merge(r.Summary)
		if r.hists != nil || !hists.None() {
			hists.Fold(r.hists, &sum)
		}
		s.mu.Unlock()
	}
	out.sum, out.hists = sum, nil
	if !hists.None() {
		kept := hists // only a cover that keeps distributions allocates
		out.hists = &kept
	}
	return true
}

// DeriveBatch attempts child-cover derivation for a batch of missing keys.
// Each parent is planned from level occupancy alone (a cover that cannot be
// complete is never walked), its children are visited by key arithmetic and
// folded into a summary on the stack — the spatial cover first, the temporal
// one if that fails — and the derived cells are then batch-inserted under one
// tick, stripe by stripe. It returns the derived result plus the keys still
// unresolved, in request order. Derived cells are resident afterwards, exactly
// as with the single-key path.
func (g *Graph) DeriveBatch(keys []cell.Key) (query.Result, []cell.Key) {
	var res query.Result
	if len(keys) == 0 {
		return res, nil
	}
	sc := scratchPool.Get().(*batchScratch)
	defer putScratch(sc)
	sc.missed = resized(sc.missed, len(keys))
	clear(sc.missed)
	sc.seen.Reset(0)
	stale := g.plm.blocks()
	nMiss := 0
	for i, k := range keys {
		if _, done := sc.seen.Get(k); done {
			continue // a repeat of a parent derived earlier in this batch
		}
		d := derivedCell{key: k}
		ok := false
		sres := k.Geohash.Len()
		if sres >= 1 && sres < cell.MaxSpatialPrecision && k.Time.Res.Valid() &&
			g.levelLen[k.Level()+1].Load() >= geohash.BranchFactor {
			ok = g.foldCover(stale, geohash.BranchFactor, func(i int) cell.Key {
				return cell.Key{Geohash: k.Geohash.Child(i), Time: k.Time}
			}, &d)
		}
		if first, n, finer := k.Time.ChildRange(); !ok && finer && sres >= 1 && sres <= cell.MaxSpatialPrecision &&
			g.levelLen[k.Level()+cell.MaxSpatialPrecision].Load() > 0 {
			ok = g.foldCover(stale, n, func(i int) cell.Key {
				return cell.Key{Geohash: k.Geohash, Time: temporal.Label{Res: first.Res, Bucket: first.Bucket + int32(i)}}
			}, &d)
		}
		if !ok {
			sc.missed[i] = true
			nMiss++
			continue
		}
		sc.seen.GetOrInsert(k, 0)
		sc.derived = append(sc.derived, d)
	}

	if derived := sc.derived; len(derived) > 0 {
		tick := g.tick.Add(1)
		ins := sc.keys[:0]
		for _, d := range derived {
			ins = append(ins, d.key)
			// A parent derived from all-empty children is a legitimate
			// negative-cache entry (inserted below), but it must not appear
			// in the served result: the disk path omits dataless bins, and
			// GetBatch skips negative hits the same way.
			if !d.sum.Empty() {
				res.Set(d.key, d.sum, d.hists)
			}
		}
		sc.keys = ins
		sc.group(g, ins)
		g.eachGroup(sc, func(s *stripe, idx []int32) {
			for j, i := range idx {
				g.insertLocked(s, ins[i], derived[i].sum, derived[i].hists, tick, len(idx)-j)
			}
		})
		g.maybeEvict()
	}
	return res, sc.missing(keys, nMiss)
}

func (g *Graph) charge(cells int) {
	if g.cfg.Sleeper != nil {
		g.cfg.Sleeper.Apply(g.cfg.Model.MemCost(cells))
	}
}
