// Package galileo reimplements the substrate the paper layers STASH on:
// Galileo, a zero-hop-DHT distributed block store for multidimensional
// spatiotemporal observations (paper §VI-C).
//
// Data lives in blocks keyed by (geohash prefix, day): all observations whose
// geohash shares the partitioning prefix and whose timestamp falls on the
// day. Each cluster node owns the blocks of the partitions the DHT ring
// assigns to it. A query against a node scans its relevant blocks from
// "disk" (the deterministic namgen generator plus an injected disk-latency
// cost) and aggregates matching observations into full-extent cells at the
// requested spatiotemporal resolution.
//
// Cells are aggregated over their full spatiotemporal bounds, not clipped to
// the query rectangle. This is what makes a cached cell reusable by any
// later query whose footprint contains it — the property STASH's collective
// cache rests on (§V-B).
package galileo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stash/internal/cell"
	"stash/internal/dht"
	"stash/internal/geohash"
	"stash/internal/namgen"
	"stash/internal/obs"
	"stash/internal/query"
	"stash/internal/simnet"
	"stash/internal/temporal"
)

// ErrMixedResolution reports a cell fetch whose keys span multiple hierarchy
// levels; fetches are per-level operations in STASH.
var ErrMixedResolution = errors.New("galileo: fetch keys span multiple resolutions")

// BlockID identifies one stored block: a geohash partition prefix and a day.
type BlockID struct {
	Prefix string
	Day    temporal.Label
}

func (b BlockID) String() string { return fmt.Sprintf("%s/%v", b.Prefix, b.Day) }

// DefaultBlockPrefixLen is the geohash length of one stored block. Node
// *ownership* follows the DHT ring's (coarser) partition prefix — the
// paper's 2 characters — while the files within a partition are organized
// at finer granularity, so a small query reads a small block rather than
// the whole partition.
const DefaultBlockPrefixLen = 3

// Store is one node's shard of the Galileo storage system.
type Store struct {
	ring       atomic.Pointer[dht.Ring] // swapped on membership epoch flips
	node       dht.NodeID
	gen        *namgen.Generator
	model      simnet.Model
	sleeper    simnet.Sleeper
	blockLen   int
	histograms bool
	parallel   int // bounded concurrent block reads per fetch; <=1 is serial

	blocksRead    atomic.Int64
	pointsScanned atomic.Int64
}

// NewStore returns the shard of the given node. The sleeper receives the
// simulated disk cost of every read; pass simnet.NewMeter() in tests.
func NewStore(ring *dht.Ring, node dht.NodeID, gen *namgen.Generator, model simnet.Model, sleeper simnet.Sleeper) *Store {
	blockLen := DefaultBlockPrefixLen
	if ring.PrefixLen() > blockLen {
		blockLen = ring.PrefixLen()
	}
	s := &Store{node: node, gen: gen, model: model, sleeper: sleeper, blockLen: blockLen}
	s.ring.Store(ring)
	return s
}

// UpdateRing swaps the partition map this shard filters ownership by. The
// membership controller installs the new epoch's ring here when it flips, so
// the shard immediately claims (or disclaims) the blocks of moved partitions.
// In-flight fetches finish against whichever ring they loaded — a harmless
// transient covered by the coordinator's not-owner retry.
func (s *Store) UpdateRing(r *dht.Ring) { s.ring.Store(r) }

// SetHistograms toggles per-attribute histogram maintenance during scans
// (using namgen.HistogramSpecs), so result cells can drive histogram panels.
func (s *Store) SetHistograms(on bool) { s.histograms = on }

// SetParallelReads bounds the number of blocks one FetchCells scans
// concurrently. Values <= 1 keep the serial scan; the cap is per fetch, so
// a node serving W workers reads at most W*n blocks at once. Configure
// before serving traffic.
func (s *Store) SetParallelReads(n int) {
	if n < 1 {
		n = 1
	}
	s.parallel = n
}

// SetBlockPrefixLen overrides the block granularity (clamped to at least
// the ring's partition prefix, at most geohash.MaxPrecision).
func (s *Store) SetBlockPrefixLen(n int) {
	if n < s.ring.Load().PrefixLen() {
		n = s.ring.Load().PrefixLen()
	}
	if n > geohash.MaxPrecision {
		n = geohash.MaxPrecision
	}
	s.blockLen = n
}

// Node returns the owning node's ID.
func (s *Store) Node() dht.NodeID { return s.node }

// BlockPrefixLen returns the geohash length at which this shard's blocks are
// stored. An external reference evaluator must enumerate blocks at exactly
// this granularity: the synthetic dataset is *defined* by the set of
// (prefix, day) blocks materialized, so a different prefix length would
// describe a different dataset, not a different view of this one.
func (s *Store) BlockPrefixLen() int { return s.blockLen }

// BlocksRead returns the number of blocks this shard has read since creation.
func (s *Store) BlocksRead() int64 { return s.blocksRead.Load() }

// PointsScanned returns the number of observations scanned since creation.
func (s *Store) PointsScanned() int64 { return s.pointsScanned.Load() }

// Owns reports whether this shard owns the partition of the given geohash.
func (s *Store) Owns(gh geohash.Hash) bool { return s.ring.Load().Owner(gh) == s.node }

// ownerOf returns the node owning a block prefix: ownership follows the
// ring's coarser partition prefix.
func (s *Store) ownerOf(blockPrefix geohash.Hash) dht.NodeID {
	r := s.ring.Load()
	return r.OwnerOfPartition(r.Partition(blockPrefix))
}

// BlocksForKeys returns the distinct blocks owned by this shard that hold
// raw data for any of the given cell keys.
func (s *Store) BlocksForKeys(keys []cell.Key) ([]BlockID, error) {
	// Dedupe on the packed (prefix, day); a block's text prefix is built once,
	// when the block is first seen.
	type packedBlock struct {
		prefix geohash.Hash
		day    temporal.Label
	}
	seen := map[packedBlock]bool{}
	var out []BlockID
	for _, k := range keys {
		first, n := k.Time.Days()
		if n == 0 {
			return nil, fmt.Errorf("%w: key %v", temporal.ErrBadLabel, k)
		}
		// The block prefixes storing the cell's data: its own prefix when it
		// is at or beyond the block length, else every extending prefix.
		for p, np := 0, k.Geohash.ExtensionCount(s.blockLen); p < np; p++ {
			prefix := k.Geohash.Extension(s.blockLen, p)
			if s.ownerOf(prefix) != s.node {
				continue
			}
			for i := 0; i < n; i++ {
				id := packedBlock{prefix, temporal.Label{Res: temporal.Day, Bucket: first.Bucket + int32(i)}}
				if !seen[id] {
					seen[id] = true
					out = append(out, BlockID{Prefix: prefix.String(), Day: id.day})
				}
			}
		}
	}
	return out, nil
}

// FetchCells computes full-extent summaries for the requested cell keys from
// this shard's raw data. All keys must share one spatiotemporal resolution
// (one hierarchy level). Only data in partitions owned by this shard is
// scanned; for keys spanning several nodes the caller merges the per-node
// partial results (summaries merge associatively).
//
// The request is grouped by block up front (BlocksForKeys deduplicates), so
// each covering block is read exactly once per fetch regardless of how many
// requested keys draw on it. With SetParallelReads(n > 1) up to n blocks are
// scanned concurrently, each into a private accumulator, and the per-block
// partials merge associatively — the same property the cross-node merge
// relies on.
//
// The returned result contains an entry for every requested key whose bounds
// hold at least one observation in this shard's partitions.
func (s *Store) FetchCells(keys []cell.Key) (query.Result, error) {
	res, _, err := s.fetchCells(keys)
	return res, err
}

// FetchCellsCtx is FetchCells with per-query attribution: when ctx carries a
// query profile (obs.ProfileFromContext), the blocks this fetch scanned on
// this shard are recorded against it. The unprofiled path is identical to
// FetchCells.
func (s *Store) FetchCellsCtx(ctx context.Context, keys []cell.Key) (query.Result, error) {
	res, blocks, err := s.fetchCells(keys)
	if p := obs.ProfileFromContext(ctx); p != nil && blocks > 0 {
		p.AddNodeBlocks(s.node.String(), blocks)
	}
	return res, err
}

// fetchCells implements FetchCells and additionally reports the number of
// blocks scanned, for per-query attribution.
func (s *Store) fetchCells(keys []cell.Key) (query.Result, int, error) {
	if len(keys) == 0 {
		return query.NewResult(), 0, nil
	}
	defer func(start time.Time) { mScanDur.ObserveDuration(time.Since(start)) }(time.Now())
	sres, tres := keys[0].SpatialRes(), keys[0].TemporalRes()
	// want maps a requested key to its (first) position in the request; the
	// accumulators index by that position, so a scanned point costs one probe.
	var want cell.Index
	want.Reset(len(keys))
	for i, k := range keys {
		if k.SpatialRes() != sres || k.TemporalRes() != tres {
			return query.Result{}, 0, fmt.Errorf("%w: %v vs (%d,%v)", ErrMixedResolution, k, sres, tres)
		}
		want.GetOrInsert(k, int32(i))
	}
	blocks, err := s.BlocksForKeys(keys)
	if err != nil {
		return query.Result{}, 0, err
	}

	// Accumulate columnar (one row per cell, one lane per attribute: the scan
	// inner loop indexes flat arrays) and copy each row once, straight into
	// the reply.
	var acc *scanAcc
	if s.parallel > 1 && len(blocks) > 1 {
		acc, err = s.scanBlocksParallel(blocks, &want, len(keys), sres, tres)
	} else {
		acc, err = s.scanBlocks(blocks, &want, len(keys), sres, tres)
	}
	if err != nil {
		return query.Result{}, 0, err
	}
	res := query.NewResultCap(len(acc.ids))
	for row, id := range acc.ids {
		var h *cell.Hists
		if acc.hists != nil {
			h = acc.hists[row]
		}
		res.Set(keys[id], acc.batch.RowSummary(row), h)
	}
	return res, len(blocks), nil
}

// scanAcc is a scan's accumulator: an arena row per requested key that has
// met an observation, found through the key's position in the request.
type scanAcc struct {
	rowOf []int32 // by request position; -1 until the key's first observation
	ids   []int32 // by row: the request position the row aggregates
	batch cell.SummaryBatch
	hists []*cell.Hists // by row; nil unless the store keeps histograms
}

func (s *Store) newScanAcc(nKeys int) *scanAcc {
	a := &scanAcc{rowOf: make([]int32, nKeys)}
	for i := range a.rowOf {
		a.rowOf[i] = -1
	}
	if s.histograms {
		a.hists = []*cell.Hists{}
	}
	return a
}

// rowFor returns the accumulator row of the key at request position id,
// appending one on first sight.
func (a *scanAcc) rowFor(id int32) int {
	row := a.rowOf[id]
	if row < 0 {
		row = int32(a.batch.AppendRow())
		a.rowOf[id] = row
		a.ids = append(a.ids, id)
		if a.hists != nil {
			a.hists = append(a.hists, new(cell.Hists))
		}
	}
	return int(row)
}

// mergeFrom folds another accumulator in as a columnar gather (the same
// MergeRows core the coordinator's tournament uses).
func (a *scanAcc) mergeFrom(p *scanAcc) {
	if len(p.ids) == 0 {
		return
	}
	dst := make([]int32, len(p.ids))
	for row, id := range p.ids {
		dst[row] = int32(a.rowFor(id))
	}
	a.batch.MergeRows(dst, &p.batch)
	for row, h := range p.hists {
		merged := a.batch.RowSummary(int(dst[row]))
		a.hists[dst[row]].Fold(h, &merged)
	}
}

// scanBlocks reads each block once, serially, into one accumulator.
func (s *Store) scanBlocks(blocks []BlockID, want *cell.Index, nKeys, sres int, tres temporal.Resolution) (*scanAcc, error) {
	acc := s.newScanAcc(nKeys)
	for _, b := range blocks {
		if err := s.scanBlock(b, want, sres, tres, acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// scanBlocksParallel fans the block list over a bounded worker pool. Each
// worker owns a private accumulator (no locks on the scan inner loop; want is
// only read); the per-worker batches gather together once at the end. The
// first error wins and remaining blocks are skipped.
func (s *Store) scanBlocksParallel(blocks []BlockID, want *cell.Index, nKeys, sres int, tres temporal.Resolution) (*scanAcc, error) {
	workers := s.parallel
	if workers > len(blocks) {
		workers = len(blocks)
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
		errMu   sync.Mutex
		firstEr error
	)
	partials := make([]*scanAcc, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := s.newScanAcc(nKeys)
			partials[w] = local
			for {
				i := int(next.Add(1)) - 1
				if i >= len(blocks) || failed.Load() {
					return
				}
				if err := s.scanBlock(blocks[i], want, sres, tres, local); err != nil {
					errMu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	acc := partials[0]
	for _, part := range partials[1:] {
		acc.mergeFrom(part)
	}
	return acc, nil
}

// scanBlock reads one block and accumulates its matching observations: one
// index probe per point, then per-attribute array updates.
func (s *Store) scanBlock(b BlockID, want *cell.Index, sres int, tres temporal.Resolution, a *scanAcc) error {
	obs, err := s.readBlock(b)
	if err != nil {
		return err
	}
	for _, o := range obs {
		id, ok := want.Get(cell.Key{
			Geohash: geohash.EncodeHash(o.Lat, o.Lon, sres),
			Time:    temporal.At(o.Time, tres),
		})
		if !ok {
			continue
		}
		row := a.rowFor(id)
		for attr, v := range o.Values() {
			a.batch.ObserveAt(cell.Attr(attr), row, v)
			if a.hists != nil {
				// The specs are valid by construction (namgen's tests).
				_ = a.hists[row].Observe(cell.Attr(attr), v, namgen.HistogramSpecs[attr])
			}
		}
	}
	return nil
}

// Query evaluates an aggregation query against this shard: the basic-system
// path with no cache in front. The result covers the footprint cells whose
// partitions this shard owns.
func (s *Store) Query(q query.Query) (query.Result, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	keys, err := q.Footprint()
	if err != nil {
		return query.Result{}, err
	}
	return s.FetchCells(keys)
}

// readBlock materializes a block and charges its disk cost.
func (s *Store) readBlock(b BlockID) ([]namgen.Observation, error) {
	obs, err := s.gen.Block(b.Prefix, b.Day)
	if err != nil {
		return nil, err
	}
	s.blocksRead.Add(1)
	s.pointsScanned.Add(int64(len(obs)))
	mBlocksRead.Inc()
	mPointsScanned.Add(int64(len(obs)))
	s.sleeper.Apply(s.model.DiskCost(1, len(obs)))
	return obs, nil
}

// Cluster bundles the shards of every node: the complete basic system. It
// answers whole queries by fanning out to each owning shard and merging —
// the behaviour a STASH-less deployment exhibits.
type Cluster struct {
	ring   *dht.Ring
	stores map[dht.NodeID]*Store
}

// NewCluster builds a store shard for every node on the ring.
func NewCluster(ring *dht.Ring, gen *namgen.Generator, model simnet.Model, sleeper simnet.Sleeper) *Cluster {
	c := &Cluster{ring: ring, stores: make(map[dht.NodeID]*Store, ring.Size())}
	for _, id := range ring.Nodes() {
		c.stores[id] = NewStore(ring, id, gen, model, sleeper)
	}
	return c
}

// Ring returns the cluster's partition map.
func (c *Cluster) Ring() *dht.Ring { return c.ring }

// Store returns the shard of the given node.
func (c *Cluster) Store(id dht.NodeID) *Store { return c.stores[id] }

// FetchCells fans a cell fetch out to every owning shard and merges the
// partial summaries.
func (c *Cluster) FetchCells(keys []cell.Key) (query.Result, error) {
	// Group keys by owning node so each shard scans only its share.
	byNode := map[dht.NodeID][]cell.Key{}
	for _, k := range keys {
		for _, prefix := range k.Geohash.Extensions(c.stores[0].blockLen) {
			owner := c.stores[0].ownerOf(prefix)
			byNode[owner] = append(byNode[owner], k)
		}
	}
	res := query.NewResult()
	for id, ks := range byNode {
		part, err := c.stores[id].FetchCells(dedupeKeys(ks))
		if err != nil {
			return res, err
		}
		res.Merge(part)
	}
	return res, nil
}

// Query evaluates a whole aggregation query across the cluster.
func (c *Cluster) Query(q query.Query) (query.Result, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	keys, err := q.Footprint()
	if err != nil {
		return query.Result{}, err
	}
	return c.FetchCells(keys)
}

// BlocksRead totals block reads across all shards.
func (c *Cluster) BlocksRead() int64 {
	var n int64
	for _, s := range c.stores {
		n += s.BlocksRead()
	}
	return n
}

func dedupeKeys(ks []cell.Key) []cell.Key {
	seen := make(map[cell.Key]bool, len(ks))
	out := ks[:0]
	for _, k := range ks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}
