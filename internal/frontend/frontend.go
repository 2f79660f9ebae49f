// Package frontend implements the paper's proposed future work (§IX-A):
//
//  1. a smaller-capacity STASH graph at the front-end, so a user browsing a
//     narrow spatiotemporal region is served without any round trip to the
//     back-end, and
//  2. a predictor of the user's access pattern that issues prefetching
//     queries for the region it expects next, hiding back-end latency behind
//     think-time.
//
// The front-end cache reuses the same stash.Graph data structure as the
// server shards — the paper's point is precisely that the structure works at
// any tier — just with a small capacity and no PLM invalidation traffic.
package frontend

import (
	"context"
	"sync"
	"time"

	"stash/internal/cell"
	"stash/internal/cluster"
	"stash/internal/obs"
	"stash/internal/query"
	"stash/internal/stash"
)

// Config tunes the front-end tier.
type Config struct {
	// CacheCells is the front-end STASH graph capacity. The paper suggests
	// a "smaller-capacity" graph; the default holds a handful of screens'
	// worth of cells.
	CacheCells int
	// Prefetch enables predictive prefetching of the next expected query.
	Prefetch bool
	// Predictor overrides the navigation predictor; nil selects
	// NewMomentumPredictor.
	Predictor Predictor
	// Singleflight dedups identical concurrent queries: when several UI
	// sessions ask for the same viewport at once (dashboards, shared links),
	// one leader runs the fetch and the rest share its result. A leader
	// failure never poisons followers — they fall back to their own fetch.
	// The zero Config leaves it off, preserving uncoalesced behavior.
	Singleflight bool
}

// DefaultConfig returns a 20k-cell prefetching front-end with query
// singleflight enabled.
func DefaultConfig() Config {
	return Config{CacheCells: 20_000, Prefetch: true, Singleflight: true}
}

// Stats counts front-end activity.
type Stats struct {
	Queries        int64
	CellsFromCache int64
	CellsFromBack  int64
	Prefetches     int64
	FullyLocal     int64 // queries answered without any back-end round trip
	Deduped        int64 // queries answered by sharing a concurrent identical fetch
}

// Client is a front-end query client: a small local STASH graph in front of
// the cluster coordinator, with optional prefetching. It is safe for
// concurrent use by the handlers of one UI session.
type Client struct {
	inner        *cluster.Client
	cache        *stash.Graph
	predictor    Predictor
	prefetch     bool
	singleflight bool

	mu      sync.Mutex
	history []query.Query
	stats   Stats
	// inflight tracks the single outstanding prefetch so they never pile up.
	prefetchBusy bool
	prefetchWG   sync.WaitGroup

	// sfMu guards the in-flight query table for singleflight dedup.
	sfMu sync.Mutex
	sf   map[string]*feFlight
}

// feFlight is one in-flight query fetch shared by every concurrent caller
// asking the identical query. res/err are written once, before done closes.
type feFlight struct {
	done chan struct{}
	res  query.Result
	err  error
}

// NewClient wraps a cluster client with a front-end tier.
func NewClient(inner *cluster.Client, cfg Config) *Client {
	if cfg.CacheCells <= 0 {
		cfg.CacheCells = DefaultConfig().CacheCells
	}
	sc := stash.DefaultConfig()
	sc.Capacity = cfg.CacheCells
	sc.Tier = "frontend"
	p := cfg.Predictor
	if p == nil {
		p = NewMomentumPredictor()
	}
	return &Client{
		inner:        inner,
		cache:        stash.NewGraph(sc),
		predictor:    p,
		prefetch:     cfg.Prefetch,
		singleflight: cfg.Singleflight,
		sf:           map[string]*feFlight{},
	}
}

// Stats snapshots the front-end counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Cache exposes the front-end graph (for tests and diagnostics). The graph
// carries its own internal mutex, so the returned handle is safe to probe
// concurrently with in-flight queries without taking the client's lock; c.mu
// guards only the client's bookkeeping (stats, history, and the
// prefetch-busy flag), never the graph itself.
func (c *Client) Cache() *stash.Graph { return c.cache }

// PrefetchBusy reports whether a background prefetch is currently in flight.
// The flag is read under the client mutex — the same lock every writer
// holds — so the answer is never torn, merely instantly stale.
func (c *Client) PrefetchBusy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prefetchBusy
}

// Query evaluates an aggregation query, serving whatever the front-end
// graph holds and fetching only the missing cells from the back-end. On
// return it records the query with the predictor and, if enabled, prefetches
// the predicted next query in the background.
func (c *Client) Query(q query.Query) (query.Result, error) {
	return c.QueryContext(context.Background(), q)
}

// QueryContext evaluates a query under the caller's context. Cancellation
// and deadline propagate into the back-end sub-requests; when the context
// carries an obs.Trace the front-end records a "query" root span with a
// "cache.probe" child ahead of the coordinator's fan-out spans.
func (c *Client) QueryContext(ctx context.Context, q query.Query) (query.Result, error) {
	ctx, qs := obs.StartSpan(ctx, "query")
	if qs != nil { // String() allocates
		qs.SetAttr("query", q.String())
	}
	qs.SetAttr("tier", "frontend")
	defer qs.End()
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	keys, err := q.Footprint()
	if err != nil {
		return query.Result{}, err
	}
	if p := obs.ProfileFromContext(ctx); p != nil { // guarded: String() allocates
		p.SetQuery(q.String())
		if len(keys) > 0 {
			k := keys[0]
			p.SetFootprint(len(keys), k.SpatialRes(), k.TemporalRes().String(), k.Level())
		}
	}
	res, err := c.fetchShared(ctx, q.String(), keys)
	if err != nil {
		return query.Result{}, err
	}

	c.mu.Lock()
	c.stats.Queries++
	c.history = append(c.history, q)
	if len(c.history) > 8 {
		c.history = c.history[len(c.history)-8:]
	}
	hist := make([]query.Query, len(c.history))
	copy(hist, c.history)
	doPrefetch := c.prefetch && !c.prefetchBusy
	if doPrefetch {
		c.prefetchBusy = true
	}
	c.mu.Unlock()

	if doPrefetch {
		if next, ok := c.predictor.Predict(hist); ok {
			c.prefetchWG.Add(1)
			go func() {
				defer c.prefetchWG.Done()
				defer func() {
					c.mu.Lock()
					c.prefetchBusy = false
					c.mu.Unlock()
				}()
				c.runPrefetch(next)
			}()
		} else {
			c.mu.Lock()
			c.prefetchBusy = false
			c.mu.Unlock()
		}
	}
	return res, nil
}

// fetchShared is the singleflight gate in front of fetch: identical queries
// in flight at the same moment share one fetch. The leader registers a
// flight keyed by the query's canonical string, runs the real fetch, and
// publishes; followers wait and copy the published result (fresh maps; only
// histogram sets, immutable by convention, stay shared) so later caller-side
// merges cannot alias the leader's map. A leader error is never inherited: followers whose
// leader failed — or whose own context expired first — run or fail on their
// own terms, so one cancelled tab cannot poison the others.
func (c *Client) fetchShared(ctx context.Context, qkey string, keys []cell.Key) (query.Result, error) {
	if !c.singleflight {
		return c.fetch(ctx, keys)
	}
	c.sfMu.Lock()
	if f := c.sf[qkey]; f != nil {
		c.sfMu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return query.Result{}, ctx.Err()
		}
		if f.err != nil {
			// Leader failed (its error may be its own cancellation); do the
			// work ourselves rather than inherit it.
			return c.fetch(ctx, keys)
		}
		c.mu.Lock()
		c.stats.Deduped++
		c.mu.Unlock()
		mDeduped.Inc()
		obs.ProfileFromContext(ctx).AddSingleflight(0, 1)
		out := query.NewResultCap(len(f.res.Cells))
		out.Merge(f.res)
		out.Coverage = f.res.Coverage
		return out, nil
	}
	f := &feFlight{done: make(chan struct{})}
	c.sf[qkey] = f
	c.sfMu.Unlock()

	f.res, f.err = c.fetch(ctx, keys)
	c.sfMu.Lock()
	delete(c.sf, qkey)
	c.sfMu.Unlock()
	close(f.done)
	return f.res, f.err
}

// fetch serves keys from the front cache, pulling misses from the back-end
// and populating the cache.
func (c *Client) fetch(ctx context.Context, keys []cell.Key) (query.Result, error) {
	probeStart := time.Now()
	_, ps := obs.StartSpan(ctx, "cache.probe")
	found, missing := c.cache.GetBatch(keys)
	ps.SetInt("hits", len(keys)-len(missing))
	ps.End()
	probeDur := time.Since(probeStart)
	mStageCacheProbe.ObserveDuration(probeDur)
	prof := obs.ProfileFromContext(ctx)
	prof.AddTier("frontend", len(keys)-len(missing), len(missing))
	prof.AddStage("cache.probe", probeDur)

	c.mu.Lock()
	c.stats.CellsFromCache += int64(len(keys) - len(missing))
	c.stats.CellsFromBack += int64(len(missing))
	if len(missing) == 0 {
		c.stats.FullyLocal++
	}
	c.mu.Unlock()

	if len(missing) == 0 {
		mFullyLocal.Inc()
		return found, nil
	}
	back, err := c.inner.FetchContext(ctx, missing)
	if err != nil {
		return query.Result{}, err
	}
	if back.Coverage.Complete() {
		c.cache.Put(back)
		var empties []cell.Key
		for _, k := range missing {
			if _, ok := back.Cells[k]; !ok {
				empties = append(empties, k)
			}
		}
		if len(empties) > 0 {
			c.cache.PutEmpty(empties)
		}
	}
	// A partial result (graceful degradation under node failures) is NOT
	// cacheable: an absent cell may be a failed share rather than an empty
	// region, and a degraded cell under-counts — negative-caching or storing
	// either would serve wrong warm answers long after the fault healed.
	// Coverage doesn't carry per-key detail, so skip caching entirely.
	found.Merge(back)
	cov := back.Coverage
	if cov.Requested > 0 {
		// Fold the locally served keys into the report so it describes the
		// whole front-end query, not just the back-end subset.
		cached := len(keys) - len(missing)
		cov.Requested += cached
		cov.Covered += cached
		cov.SharesRequested += cached
		cov.SharesServed += cached
	}
	found.Coverage = cov
	return found, nil
}

// runPrefetch pulls the predicted query's missing cells into the front
// cache without returning them to anyone.
func (c *Client) runPrefetch(q query.Query) {
	if err := q.Validate(); err != nil {
		return
	}
	keys, err := q.Footprint()
	if err != nil {
		return
	}
	missing := c.cache.PLM().Missing(keys)
	if len(missing) == 0 {
		return
	}
	back, err := c.inner.Fetch(missing)
	if err != nil || !back.Coverage.Complete() {
		// Never warm the cache from a degraded fetch (see fetch above).
		return
	}
	c.cache.Put(back)
	var empties []cell.Key
	for _, k := range missing {
		if _, ok := back.Cells[k]; !ok {
			empties = append(empties, k)
		}
	}
	if len(empties) > 0 {
		c.cache.PutEmpty(empties)
	}
	c.mu.Lock()
	c.stats.Prefetches++
	c.mu.Unlock()
	mPrefetches.Inc()
}

// Wait blocks until any in-flight prefetch has landed (tests and shutdown).
func (c *Client) Wait() { c.prefetchWG.Wait() }
