// Package elastic models the comparator system of the paper's §VIII-F: an
// ElasticSearch-style analytics engine with its stock caching layers, used
// to contrast against STASH on overlapping visual-exploration queries.
//
// The model captures the properties the comparison hinges on:
//
//   - the index is sharded by document hash, not by space, so a geospatial
//     query fans out to every shard (the paper used 600 shards over 120 data
//     nodes) and pays per-shard coordination cost;
//   - the request cache stores results keyed by the *exact* query, so a
//     duplicate query is fast but any overlapping-yet-different query misses
//     it entirely;
//   - the field-data cache keeps column values of previously touched blocks
//     hot, shaving the disk seek — the only benefit ES gets from overlapping
//     queries, which is why the paper measures just 0.6–2 % improvement
//     while STASH reuses aggregated cells and improves 50–70 %.
package elastic

import (
	"fmt"
	"sync"
	"time"

	"stash/internal/cell"
	"stash/internal/galileo"
	"stash/internal/geohash"
	"stash/internal/namgen"
	"stash/internal/query"
	"stash/internal/simnet"
	"stash/internal/temporal"
)

// Config assembles an engine.
type Config struct {
	// Shards is the index shard count (paper: 600).
	Shards int
	// Seed and PointsPerBlock define the same synthetic dataset the STASH
	// cluster queries, so results are comparable.
	Seed           uint64
	PointsPerBlock int
	// RequestCacheSize bounds the exact-match request cache (entries).
	RequestCacheSize int
	// BlockPrefixLen matches the STASH cluster's storage block granularity
	// so both systems read identically sized blocks.
	BlockPrefixLen int
	// Histograms makes scans maintain per-attribute histograms, matching
	// the STASH cluster's option of the same name.
	Histograms bool
	// Model and Sleeper inject simulated costs.
	Model   simnet.Model
	Sleeper simnet.Sleeper
}

// DefaultConfig mirrors the paper's ES deployment scaled to the simulation.
func DefaultConfig() Config {
	return Config{
		Shards:           600,
		Seed:             42,
		PointsPerBlock:   namgen.DefaultPointsPerBlock,
		RequestCacheSize: 4096,
		BlockPrefixLen:   galileo.DefaultBlockPrefixLen,
		Model:            simnet.Default(),
		Sleeper:          simnet.NewMeter(),
	}
}

// Stats counts engine activity.
type Stats struct {
	Queries       int64
	RequestHits   int64 // served whole from the request cache
	FieldDataHits int64 // blocks whose columns were already hot
	BlocksRead    int64 // cold block reads
	PointsScanned int64
}

// esSeekDivisor scales the block-store seek down to ES's amortized
// sequential-segment open cost.
const esSeekDivisor = 10

// Engine is the simulated ES cluster. It is safe for concurrent use.
type Engine struct {
	cfg Config
	gen *namgen.Generator

	mu        sync.Mutex
	fielddata map[galileo.BlockID]bool
	requests  map[string]query.Result
	reqOrder  []string
	stats     Stats
}

// New assembles an engine.
func New(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultConfig().Shards
	}
	if cfg.PointsPerBlock <= 0 {
		cfg.PointsPerBlock = namgen.DefaultPointsPerBlock
	}
	if cfg.RequestCacheSize <= 0 {
		cfg.RequestCacheSize = DefaultConfig().RequestCacheSize
	}
	if cfg.BlockPrefixLen <= 0 {
		cfg.BlockPrefixLen = galileo.DefaultBlockPrefixLen
	}
	if cfg.Sleeper == nil {
		cfg.Sleeper = simnet.NewMeter()
	}
	return &Engine{
		cfg:       cfg,
		gen:       &namgen.Generator{Seed: cfg.Seed, PointsPerBlock: cfg.PointsPerBlock},
		fielddata: map[galileo.BlockID]bool{},
		requests:  map[string]query.Result{},
	}
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// cacheKey is the exact-match request-cache key: every parameter of the
// query participates, so any change — a 10% pan, one resolution step —
// misses.
func cacheKey(q query.Query) string {
	return fmt.Sprintf("%.6f/%.6f/%.6f/%.6f|%d/%d|%d/%d",
		q.Box.MinLat, q.Box.MaxLat, q.Box.MinLon, q.Box.MaxLon,
		q.Time.Start.UnixNano(), q.Time.End.UnixNano(),
		q.SpatialRes, int(q.TemporalRes))
}

// Query evaluates an aggregation query. Results are full-extent cells at the
// requested resolutions, identical in content to what the STASH cluster
// returns for the same query, so only the serving path differs.
func (e *Engine) Query(q query.Query) (query.Result, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	key := cacheKey(q)

	e.mu.Lock()
	if cached, ok := e.requests[key]; ok {
		e.stats.Queries++
		e.stats.RequestHits++
		e.mu.Unlock()
		// A request-cache hit still pays one coordination hop and the
		// response marshalling.
		e.cfg.Sleeper.Apply(e.cfg.Model.NetCost(0))
		e.cfg.Sleeper.Apply(e.cfg.Model.MemCost(cached.Len()))
		return cloneResult(cached), nil
	}
	e.stats.Queries++
	e.mu.Unlock()

	// Hash-sharded index: the query fans out to every shard regardless of
	// its spatial extent.
	e.cfg.Sleeper.Apply(time.Duration(e.cfg.Shards) * e.cfg.Model.NetCost(0))

	blocks, err := e.blocksFor(q)
	if err != nil {
		return query.Result{}, err
	}
	res := query.NewResult()
	for _, b := range blocks {
		if err := e.scanBlock(b, q, &res); err != nil {
			return query.Result{}, err
		}
	}

	e.mu.Lock()
	e.storeRequest(key, res)
	e.mu.Unlock()
	return cloneResult(res), nil
}

// blocksFor enumerates the (prefix, day) blocks intersecting the query.
func (e *Engine) blocksFor(q query.Query) ([]galileo.BlockID, error) {
	prefixes, err := geohash.Cover(q.Box, e.cfg.BlockPrefixLen)
	if err != nil {
		return nil, err
	}
	days, err := q.Time.Cover(temporal.Day)
	if err != nil {
		return nil, err
	}
	out := make([]galileo.BlockID, 0, len(prefixes)*len(days))
	for _, p := range prefixes {
		for _, d := range days {
			out = append(out, galileo.BlockID{Prefix: p, Day: d})
		}
	}
	return out, nil
}

// scanBlock reads one block (warm through field data if previously touched)
// and folds its observations into the result.
func (e *Engine) scanBlock(b galileo.BlockID, q query.Query, res *query.Result) error {
	obs, err := e.gen.Block(b.Prefix, b.Day)
	if err != nil {
		return err
	}

	e.mu.Lock()
	warm := e.fielddata[b]
	e.fielddata[b] = true
	if warm {
		e.stats.FieldDataHits++
	} else {
		e.stats.BlocksRead++
	}
	e.stats.PointsScanned += int64(len(obs))
	e.mu.Unlock()

	// Lucene-style segments are scanned sequentially, so the per-block open
	// overhead is a fraction of a block-store seek; field-data warmth saves
	// only that fraction while the per-point scan+aggregation work — the
	// dominant term — repeats on every query. This is why the paper measures
	// only a 0.6-2% gain for ES on overlapping queries.
	seek := e.cfg.Model.DiskSeek / esSeekDivisor
	if warm {
		e.cfg.Sleeper.Apply(e.cfg.Model.DiskCost(0, len(obs)))
	} else {
		e.cfg.Sleeper.Apply(seek + e.cfg.Model.DiskCost(0, len(obs)))
	}

	// One accumulator per cell of this shard, the distributions (when kept)
	// beside the stats.
	type shardCell struct {
		sum   cell.Summary
		hists *cell.Hists
	}
	acc := map[cell.Key]*shardCell{}
	for _, o := range obs {
		k := cell.Key{
			Geohash: geohash.EncodeHash(o.Lat, o.Lon, q.SpatialRes),
			Time:    temporal.At(o.Time, q.TemporalRes),
		}
		if !k.Box().Intersects(q.Box) {
			continue
		}
		ts, err := k.Time.Start()
		if err != nil {
			continue
		}
		te, _ := k.Time.End()
		if !ts.Before(q.Time.End) || !q.Time.Start.Before(te) {
			continue
		}
		c := acc[k]
		if c == nil {
			c = &shardCell{}
			if e.cfg.Histograms {
				c.hists = new(cell.Hists)
			}
			acc[k] = c
		}
		for attr, v := range o.Values() {
			c.sum.Observe(cell.Attr(attr), v)
			if c.hists != nil {
				// The specs are valid by construction (namgen's tests).
				_ = c.hists.Observe(cell.Attr(attr), v, namgen.HistogramSpecs[attr])
			}
		}
	}
	for k, c := range acc {
		res.AddCell(k, c.sum, c.hists)
	}
	return nil
}

// storeRequest inserts into the exact-match request cache with FIFO
// eviction. Callers hold e.mu.
func (e *Engine) storeRequest(key string, res query.Result) {
	if _, exists := e.requests[key]; exists {
		return
	}
	if len(e.reqOrder) >= e.cfg.RequestCacheSize {
		oldest := e.reqOrder[0]
		e.reqOrder = e.reqOrder[1:]
		delete(e.requests, oldest)
	}
	e.requests[key] = cloneResult(res)
	e.reqOrder = append(e.reqOrder, key)
}

func cloneResult(r query.Result) query.Result {
	out := query.NewResultCap(r.Len())
	out.Merge(r)
	return out
}
