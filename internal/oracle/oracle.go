// Package oracle is the repo's answer-correctness reference: a deliberately
// simple, single-threaded evaluator that answers any query.Query by scanning
// the synthetic namgen dataset directly and aggregating exactly — no STASH
// graph, no DHT routing, no derivation from cached children, no coalescing,
// no wire codec. Whatever the optimized cluster serve path returns must be
// semantically interchangeable with what this package recomputes (the
// reuse-correctness contract: cached and derived intermediates are only
// valid if recomputation agrees).
//
// The package deliberately re-implements block enumeration and binning
// instead of calling into internal/galileo: sharing the production scan code
// would blind the oracle to bugs in it. The only things the oracle shares
// with the system under test are the *dataset definition* — the namgen
// generator (seed + block versions) and the block prefix length, since the
// set of materialized (prefix, day) blocks IS the dataset — and the leaf
// packages geohash/temporal/cell that define what a key means.
package oracle

import (
	"fmt"
	"sort"
	"sync"

	"stash/internal/cell"
	"stash/internal/cluster"
	"stash/internal/galileo"
	"stash/internal/geohash"
	"stash/internal/namgen"
	"stash/internal/query"
	"stash/internal/temporal"
)

// Oracle evaluates queries by exact sequential recomputation. It is safe for
// concurrent use (the differential driver cross-checks responses from many
// goroutines); internally every evaluation is a plain single-threaded scan.
type Oracle struct {
	gen      *namgen.Generator
	blockLen int

	mu   sync.Mutex
	memo map[memoKey][]namgen.Observation
}

// memoKey identifies one immutable materialization of a block: folding the
// version in keeps the memo coherent across Generator.Bump (simulated
// ingest) without any invalidation protocol — a bumped block is simply a new
// key.
type memoKey struct {
	prefix  string
	day     temporal.Label
	version uint64
}

// New returns an oracle over the given generator, enumerating blocks at the
// given geohash prefix length. The prefix length is clamped to
// [1, geohash.MaxPrecision].
func New(gen *namgen.Generator, blockPrefixLen int) *Oracle {
	if blockPrefixLen < 1 {
		blockPrefixLen = galileo.DefaultBlockPrefixLen
	}
	if blockPrefixLen > geohash.MaxPrecision {
		blockPrefixLen = geohash.MaxPrecision
	}
	return &Oracle{gen: gen, blockLen: blockPrefixLen, memo: map[memoKey][]namgen.Observation{}}
}

// ForCluster returns an oracle bound to the cluster's dataset: the same
// generator instance (so block version bumps from UpdateBlock stay coherent)
// and the same block prefix length its Galileo shards scan at.
func ForCluster(c *cluster.Cluster) *Oracle {
	blockLen := galileo.DefaultBlockPrefixLen
	if nodes := c.Nodes(); len(nodes) > 0 {
		blockLen = nodes[0].Store().BlockPrefixLen()
	}
	return New(c.Generator(), blockLen)
}

// BlockPrefixLen returns the block granularity the oracle enumerates at.
func (o *Oracle) BlockPrefixLen() int { return o.blockLen }

// Query answers an aggregation query exactly: one summary per footprint cell
// holding at least one observation, each aggregated over the cell's full
// spatiotemporal bounds (the same full-extent semantics the cluster serves,
// which is what makes cells reusable across queries).
func (o *Oracle) Query(q query.Query) (query.Result, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	keys, err := q.Footprint()
	if err != nil {
		return query.Result{}, err
	}
	return o.FetchCells(keys)
}

// FetchCells recomputes the summaries of an explicit key set. Keys may span
// hierarchy levels; each level is scanned independently.
func (o *Oracle) FetchCells(keys []cell.Key) (query.Result, error) {
	res := query.NewResult()
	type level struct {
		sres int
		tres temporal.Resolution
	}
	groups := map[level][]cell.Key{}
	for _, k := range keys {
		l := level{sres: k.SpatialRes(), tres: k.TemporalRes()}
		groups[l] = append(groups[l], k)
	}
	// Deterministic group order (mixed-level requests only): sort levels.
	levels := make([]level, 0, len(groups))
	for l := range groups {
		levels = append(levels, l)
	}
	sort.Slice(levels, func(i, j int) bool {
		if levels[i].tres != levels[j].tres {
			return levels[i].tres < levels[j].tres
		}
		return levels[i].sres < levels[j].sres
	})
	for _, l := range levels {
		if err := o.scanLevel(groups[l], l.sres, l.tres, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// blockID names one stored block; a local twin of galileo.BlockID so the
// oracle stays import-light on the system under test.
type blockID struct {
	prefix string
	day    temporal.Label
}

// scanLevel aggregates all requested keys of one hierarchy level: enumerate
// the covering blocks, scan each exactly once in sorted order, and bin every
// observation to its key at the requested resolutions.
func (o *Oracle) scanLevel(keys []cell.Key, sres int, tres temporal.Resolution, res *query.Result) error {
	want := make(map[cell.Key]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	blocks, err := o.blocksFor(keys)
	if err != nil {
		return err
	}
	acc := map[cell.Key]*cell.Summary{}
	for _, b := range blocks {
		obs, err := o.block(b)
		if err != nil {
			return err
		}
		for _, ob := range obs {
			k := cell.Key{
				Geohash: geohash.EncodeHash(ob.Lat, ob.Lon, sres),
				Time:    temporal.At(ob.Time, tres),
			}
			if !want[k] {
				continue
			}
			sum := acc[k]
			if sum == nil {
				sum = new(cell.Summary)
				acc[k] = sum
			}
			for attr, v := range ob.Values() {
				sum.Observe(cell.Attr(attr), v)
			}
		}
	}
	for k, sum := range acc {
		res.Add(k, *sum)
	}
	return nil
}

// blocksFor enumerates the distinct blocks holding raw data for the keys, in
// deterministic (prefix, day) order.
func (o *Oracle) blocksFor(keys []cell.Key) ([]blockID, error) {
	seen := map[blockID]bool{}
	var out []blockID
	for _, k := range keys {
		first, n := k.Time.Days()
		if n == 0 {
			return nil, fmt.Errorf("oracle: key %v: %w", k, temporal.ErrBadLabel)
		}
		for _, p := range k.Geohash.Extensions(o.blockLen) {
			for i := 0; i < n; i++ {
				id := blockID{prefix: p.String(), day: temporal.Label{Res: temporal.Day, Bucket: first.Bucket + int32(i)}}
				if !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].prefix != out[j].prefix {
			return out[i].prefix < out[j].prefix
		}
		return out[i].day.Compare(out[j].day) < 0
	})
	return out, nil
}

// block materializes one block, memoized per (prefix, day, version).
func (o *Oracle) block(b blockID) ([]namgen.Observation, error) {
	v := o.gen.Version(b.prefix, b.day)
	k := memoKey{prefix: b.prefix, day: b.day, version: v}
	o.mu.Lock()
	obs, ok := o.memo[k]
	o.mu.Unlock()
	if ok {
		return obs, nil
	}
	obs, err := o.gen.Block(b.prefix, b.day)
	if err != nil {
		return nil, fmt.Errorf("oracle: block %s/%v: %w", b.prefix, b.day, err)
	}
	// Memoize only if the version is still the one we read: a concurrent
	// Bump between Version and Block would otherwise file new content under
	// the old version forever.
	if o.gen.Version(b.prefix, b.day) == v {
		o.mu.Lock()
		o.memo[k] = obs
		o.mu.Unlock()
	}
	return obs, nil
}
