// Package stash implements the paper's primary contribution: the STASH
// graph, a distributed in-memory cache of hierarchically aggregated
// spatiotemporal cells (paper §IV, §V).
//
// One Graph instance is the per-node shard of the logical G_STASH =
// (V, {E_H, E_L}). Vertices (Cells) are stored in per-level hash maps — the
// paper's "map of distributed hash tables" — so locating a cell costs one
// local map lookup per level. Edges are never materialized: hierarchical and
// lateral relationships are derived from the cell-key algebra in package
// cell, the paper's "composable vertex discovery schemes".
//
// The Graph also carries the two policies the paper builds on top of the
// data structure: freshness-based cell replacement with neighborhood
// dispersion (§V-C) and the precision-level map (PLM) that tracks
// completeness against the backing store (§IV-D).
//
// Concurrency: the store is hash-striped. Each stripe owns a private
// per-level map set under its own mutex, so requests touching disjoint
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

// stripe is one hash shard of the store: a private per-level map set under
// its own lock. A cell lives in exactly one stripe (chosen by key hash), so
// holding the stripe lock protects both the maps and the freshness fields of
// every resident *cell.Cell.
type stripe struct {
	mu     sync.Mutex
	idx    int // position in Graph.stripes, for the per-stripe gauges
	levels [cell.NumLevels]map[cell.Key]*cell.Cell
	size   int
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
		plm:     NewPLM(),
		om:      metricsForTier(cfg.Tier),
		gauges:  stripeGauges(cfg.Tier, n),
	}
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
	return s.size
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
// grouping, the miss marks, and dispersion's membership set and boost list.
// Requests borrow one from scratchPool, so a warm graph serves a batch
// without allocating anything but the reply.
type batchScratch struct {
	// Stripe grouping (group): key i hashes to stripe stripeOf[i]; the key
	// indices of stripe s are order[start[s]:start[s+1]], in request order.
	stripeOf []uint8 // maxStripes is 256, so a stripe index fits a byte
	order    []int32
	start    [maxStripes + 1]int32

	missed []bool     // GetBatch: by key index, so missing keeps request order
	keys   []cell.Key // Put: the result's keys; disperse: the boost list
	seen   keySet     // disperse: requested or already boosted
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// maxPooledScratchKeys bounds the request size whose scratch goes back to the
// pool, so one giant batch does not pin its buffers behind every small one.
const maxPooledScratchKeys = 1 << 16

func putScratch(sc *batchScratch) {
	if cap(sc.order) <= maxPooledScratchKeys && cap(sc.keys) <= maxPooledScratchKeys {
		scratchPool.Put(sc)
	}
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

// keySet is an open-addressing set of cell keys. The zero Key, which is not
// a valid cell, marks an empty slot.
type keySet struct {
	slots []cell.Key // power-of-two length
	n     int
}

// reset empties the set and sizes it for a request of n keys: at the half
// load add keeps to, room for the request plus as many boost candidates.
func (s *keySet) reset(n int) {
	want := 256
	for want < 4*n {
		want <<= 1
	}
	if cap(s.slots) < want {
		s.slots = make([]cell.Key, want)
	} else {
		// Keep what a table grew by on earlier requests (a region with
		// resident temporal neighbors queues several candidates per key, and
		// regrowing on every request would reallocate), but not what one far
		// larger request left behind: clearing is linear in the size kept.
		s.slots = s.slots[:min(cap(s.slots), 4*want)]
		clear(s.slots)
	}
	s.n = 0
}

// add inserts k and reports whether it was absent.
func (s *keySet) add(k cell.Key) bool {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]cell.Key, 2*len(old)), 0
		for _, o := range old {
			if o != (cell.Key{}) {
				s.add(o)
			}
		}
	}
	mask := uint64(len(s.slots) - 1)
	for i := k.Hash() & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case cell.Key{}:
			s.slots[i] = k
			s.n++
			return true
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
// not once per key.
func (g *Graph) GetBatch(keys []cell.Key) (query.Result, []cell.Key) {
	// Pre-size for the all-hit steady state: this map becomes the node's
	// reply (and the coordinator recycles it after its columnar merge), so
	// incremental growth here is pure serve-path overhead.
	res := query.NewResultCap(len(keys))
	if len(keys) == 0 {
		return res, nil
	}
	tick := g.tick.Add(1)
	sc := scratchPool.Get().(*batchScratch)
	defer putScratch(sc)

	sc.missed = resized(sc.missed, len(keys))
	clear(sc.missed)
	nMiss := 0
	sc.group(g, keys)
	g.eachGroup(sc, func(s *stripe, idx []int32) {
		for _, i := range idx {
			k := keys[i]
			c := s.lookup(k)
			if c == nil || g.plm.IsStale(k) {
				if c != nil {
					// Stale cell: drop it so the refetch replaces it.
					g.removeLocked(s, k)
				}
				sc.missed[i] = true
				nMiss++
				continue
			}
			c.Touch(tick, g.cfg.FreshInc, g.decay)
			// Negative-cached (empty) cells count as hits but add nothing
			// to the result, matching the disk path's omission of dataless
			// bins.
			if !c.Summary.Empty() {
				res.Add(k, c.Summary)
			}
		}
	})

	var missing []cell.Key
	if nMiss > 0 {
		missing = make([]cell.Key, 0, nMiss)
		for i, m := range sc.missed {
			if m {
				missing = append(missing, keys[i])
			}
		}
	}

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
	sc.seen.reset(len(keys))
	for _, k := range keys {
		sc.seen.add(k)
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
			if c := s.lookup(boost[i]); c != nil {
				c.Disperse(tick, inc, g.decay)
			}
		}
	})
}

// candidate queues k for a boost unless it was requested or is queued
// already.
func (sc *batchScratch) candidate(k cell.Key) {
	if sc.seen.add(k) {
		sc.keys = append(sc.keys, k)
	}
}

// Peek returns a cell's summary without touching freshness or dispersing.
// ok is false if the cell is absent or stale.
func (g *Graph) Peek(k cell.Key) (cell.Summary, bool) {
	s := g.stripeFor(k)
	g.lockStripe(s)
	defer s.mu.Unlock()
	c := s.lookup(k)
	if c == nil || g.plm.IsStale(k) {
		return cell.Summary{}, false
	}
	return c.Summary, true
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
			for _, i := range idx {
				g.insertLocked(s, keys[i], res.Cells[keys[i]], tick)
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
		for _, i := range idx {
			if s.lookup(keys[i]) == nil {
				g.insertLocked(s, keys[i], cell.NewSummary(), tick)
			}
		}
	})
	putScratch(sc)
	g.maybeEvict()
	g.charge(len(keys))
}

// insertLocked inserts or replaces one cell. Callers hold s.mu; k hashes to s.
func (g *Graph) insertLocked(s *stripe, k cell.Key, sum cell.Summary, tick int64) {
	lvl := k.Level()
	if lvl < 0 || lvl >= cell.NumLevels {
		return
	}
	if s.levels[lvl] == nil {
		s.levels[lvl] = map[cell.Key]*cell.Cell{}
	}
	c, exists := s.levels[lvl][k]
	if !exists {
		c = cell.New(k)
		s.levels[lvl][k] = c
		s.size++
		g.size.Add(1)
		g.levelLen[lvl].Add(1)
		g.levelSpan[lvl].widen(k.Time.Bucket)
		g.inserts.Add(1)
		g.om.inserts.Inc()
		g.om.cells.Add(1)
		g.gauges[s.idx].Add(1)
	}
	// The graph aliases the inserted summary: results and caches share
	// summaries under the immutable-by-convention rule (see query.Result).
	c.Summary = sum
	c.Touch(tick, g.cfg.FreshInc, g.decay)
	g.plm.MarkPresent(k)
}

// lookup finds a cell within one stripe. Callers hold s.mu.
func (s *stripe) lookup(k cell.Key) *cell.Cell {
	lvl := k.Level()
	if lvl < 0 || lvl >= cell.NumLevels || s.levels[lvl] == nil {
		return nil
	}
	return s.levels[lvl][k]
}

// removeLocked removes one cell. Callers hold s.mu; k hashes to s.
func (g *Graph) removeLocked(s *stripe, k cell.Key) {
	lvl := k.Level()
	if lvl < 0 || lvl >= cell.NumLevels || s.levels[lvl] == nil {
		return
	}
	if _, ok := s.levels[lvl][k]; ok {
		delete(s.levels[lvl], k)
		s.size--
		g.size.Add(-1)
		g.levelLen[lvl].Add(-1)
		g.om.cells.Add(-1)
		g.gauges[s.idx].Add(-1)
		g.plm.MarkAbsent(k)
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
func (g *Graph) maybeEvict() {
	if g.size.Load() <= int64(g.cfg.Capacity) {
		return
	}
	if !g.evicting.CompareAndSwap(false, true) {
		return
	}
	defer g.evicting.Store(false)

	target := int64(float64(g.cfg.Capacity) * g.cfg.SafeFraction)
	need := g.size.Load() - target
	if need <= 0 {
		return
	}
	tick := g.tick.Load()
	type scored struct {
		key   cell.Key
		s     *stripe
		score float64
	}
	all := make([]scored, 0, g.size.Load())
	for _, s := range g.stripes {
		g.lockStripe(s)
		for lvl := range s.levels {
			for k, c := range s.levels[lvl] {
				all = append(all, scored{key: k, s: s, score: c.FreshnessAt(tick, g.decay)})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score < all[j].score })
	if int64(len(all)) < need {
		need = int64(len(all))
	}
	victims := all[:need]

	// Group removals by stripe so each stripe lock is taken once.
	byStripe := map[*stripe][]cell.Key{}
	for _, v := range victims {
		byStripe[v.s] = append(byStripe[v.s], v.key)
	}
	evicted := int64(0)
	for s, ks := range byStripe {
		g.lockStripe(s)
		for _, k := range ks {
			if s.lookup(k) != nil {
				g.removeLocked(s, k)
				evicted++
			}
		}
		s.mu.Unlock()
	}
	g.evictions.Add(evicted)
	g.om.evictions.Add(evicted)
}

// Freshness returns a cell's current (decayed) freshness; ok is false if the
// cell is absent.
func (g *Graph) Freshness(k cell.Key) (float64, bool) {
	s := g.stripeFor(k)
	g.lockStripe(s)
	defer s.mu.Unlock()
	c := s.lookup(k)
	if c == nil {
		return 0, false
	}
	return c.FreshnessAt(g.tick.Load(), g.decay), true
}

// Keys returns every cached key at one level, in unspecified order.
func (g *Graph) Keys(level int) []cell.Key {
	if level < 0 || level >= cell.NumLevels {
		return nil
	}
	out := make([]cell.Key, 0, g.levelLen[level].Load())
	for _, s := range g.stripes {
		g.lockStripe(s)
		for k := range s.levels[level] {
			out = append(out, k)
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
			if c := s.lookup(keys[i]); c != nil {
				res.Add(keys[i], c.Summary)
			}
		}
	})
	return res
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
// Removal goes through the PLM (MarkAbsent), so the old owner honestly
// misses on these keys after the freeze lifts.
func (g *Graph) ExtractPartitions(prefixLen int, moved map[geohash.Hash]bool) query.Result {
	res := query.NewResult()
	if len(moved) == 0 {
		return res
	}
	for _, s := range g.stripes {
		g.lockStripe(s)
		for lvl := range s.levels {
			for k, c := range s.levels[lvl] {
				if k.Geohash.Len() < prefixLen || !moved[k.Geohash.Prefix(prefixLen)] {
					continue
				}
				// A stale cell (invalidated by ingest, not yet lazily
				// evicted) is removed but never shipped: the new owner's PLM
				// would mark it fresh on insert, laundering stale data.
				if !g.plm.IsStale(k) {
					res.Add(k, c.Summary)
				}
				g.removeLocked(s, k)
			}
		}
		s.mu.Unlock()
	}
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
	extendsChanged := func(gh geohash.Hash) bool {
		for p := range changed {
			if p.HasPrefix(gh) {
				return true
			}
		}
		return false
	}
	dropped := 0
	for _, s := range g.stripes {
		g.lockStripe(s)
		for lvl := range s.levels {
			for k := range s.levels[lvl] {
				if k.Geohash.Len() >= prefixLen || !extendsChanged(k.Geohash) {
					continue
				}
				g.removeLocked(s, k)
				dropped++
			}
		}
		s.mu.Unlock()
	}
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

// deriveCandidate is one (parent, child-cover) derivation attempt.
type deriveCandidate struct {
	parent   int // index into the request's key slice
	children []cell.Key
}

// DeriveBatch attempts child-cover derivation for a batch of missing keys in
// three stripe-grouped stages: (1) plan candidate child covers from level
// occupancy and key algebra alone, with no locks held; (2) fetch every
// needed child summary, taking each stripe lock once for the whole batch;
// (3) merge covers per parent and batch-insert the derived cells. It
// returns the derived result plus the keys still unresolved, in request
// order. Derived cells are resident afterwards, exactly as with the
// single-key path.
func (g *Graph) DeriveBatch(keys []cell.Key) (query.Result, []cell.Key) {
	res := query.NewResult()
	if len(keys) == 0 {
		return res, nil
	}

	// Stage 1: plan. Check child-level occupancy from level arithmetic alone
	// before materializing any child keys.
	var cands []deriveCandidate
	for i, k := range keys {
		if k.Geohash.Len() < cell.MaxSpatialPrecision {
			childLvl := int(k.Time.Res)*cell.MaxSpatialPrecision + k.Geohash.Len()
			if g.levelLen[childLvl].Load() >= int64(geohash.BranchFactor) {
				if children, ok := k.SpatialChildren(); ok {
					cands = append(cands, deriveCandidate{parent: i, children: children})
				}
			}
		}
		if finer, ok := k.Time.Res.Finer(); ok {
			childLvl := int(finer)*cell.MaxSpatialPrecision + k.Geohash.Len() - 1
			if g.levelLen[childLvl].Load() > 0 {
				if children, ok := k.TemporalChildren(); ok {
					cands = append(cands, deriveCandidate{parent: i, children: children})
				}
			}
		}
	}
	if len(cands) == 0 {
		return res, keys
	}

	// Stage 2: fetch. Union the child keys of every candidate and read their
	// summaries with one lock acquisition per stripe. Summaries are shared
	// by value under the immutable-by-convention rule, so reading them under
	// the stripe lock and merging after release is safe.
	var lookups []cell.Key
	seen := map[cell.Key]bool{}
	for _, c := range cands {
		for _, ck := range c.children {
			if !seen[ck] {
				seen[ck] = true
				lookups = append(lookups, ck)
			}
		}
	}
	got := make(map[cell.Key]cell.Summary, len(lookups))
	sc := scratchPool.Get().(*batchScratch)
	defer putScratch(sc)
	sc.group(g, lookups)
	g.eachGroup(sc, func(s *stripe, idx []int32) {
		for _, i := range idx {
			ck := lookups[i]
			if c := s.lookup(ck); c != nil && !g.plm.IsStale(ck) {
				got[ck] = c.Summary
			}
		}
	})

	// Stage 3: merge complete covers and batch-insert the derived cells.
	derived := map[cell.Key]cell.Summary{}
	for _, c := range cands {
		k := keys[c.parent]
		if _, done := derived[k]; done {
			continue // spatial cover already succeeded for this parent
		}
		sum := cell.NewSummary()
		ok := true
		for _, ck := range c.children {
			cs, present := got[ck]
			if !present {
				ok = false
				break
			}
			sum.Merge(cs)
		}
		if ok {
			derived[k] = sum
		}
	}
	if len(derived) > 0 {
		tick := g.tick.Add(1)
		ins := make([]cell.Key, 0, len(derived))
		for k := range derived {
			ins = append(ins, k)
		}
		sc.group(g, ins)
		g.eachGroup(sc, func(s *stripe, idx []int32) {
			for _, i := range idx {
				g.insertLocked(s, ins[i], derived[ins[i]], tick)
			}
		})
		for k, sum := range derived {
			// A parent derived from all-empty children is a legitimate
			// negative-cache entry (inserted above), but it must not appear
			// in the served result: the disk path omits dataless bins, and
			// GetBatch skips negative hits the same way.
			if !sum.Empty() {
				res.Add(k, sum)
			}
		}
		g.maybeEvict()
	}

	var unresolved []cell.Key
	for _, k := range keys {
		if _, ok := derived[k]; !ok {
			unresolved = append(unresolved, k)
		}
	}
	return res, unresolved
}

func (g *Graph) charge(cells int) {
	if g.cfg.Sleeper != nil {
		g.cfg.Sleeper.Apply(g.cfg.Model.MemCost(cells))
	}
}
