package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"
	"testing"

	"stash/internal/cell"
	"stash/internal/cluster"
	"stash/internal/dht"
	"stash/internal/export"
	"stash/internal/frontend"
	"stash/internal/galileo"
	"stash/internal/geohash"
	"stash/internal/namgen"
	"stash/internal/query"
	"stash/internal/simnet"
	"stash/internal/stash"
	"stash/internal/temporal"
	"stash/internal/wire"
	"stash/internal/workload"
)

// sink keeps the compiler from discarding a measured call's result.
var sink any

// countWriter counts bytes and drops them.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// runLadder times one fixed state-size footprint F (ladderBox at resolution
// 4, the default day) at every layer in isolation and returns the per-key,
// per-cell and per-point figures by metric name. benchtime is the
// testing.Benchmark budget of each rung.
func runLadder(benchtime string) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	// rung times f in isolation and reports ns, bytes and allocations per op.
	rung := func(f func(b *testing.B)) (ns, bytes, allocs float64) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
		if r.N == 0 {
			return 0, 0, 0
		}
		return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.AllocedBytesPerOp()), float64(r.AllocsPerOp())
	}
	m := map[string]float64{}
	q := baseQuery(ladderBox)
	keys, err := q.Footprint()
	if err != nil {
		return nil, err
	}
	nKeys := float64(len(keys))

	// A warm default cluster supplies F's cells, its owner shares and the
	// cluster-level rungs.
	e, err := newEnv(0)
	if err != nil {
		return nil, err
	}
	defer e.c.Stop()
	cl := e.c.Client()
	full, err := cl.Query(q)
	if err != nil {
		return nil, err
	}
	if err := quiesce(e.c); err != nil {
		return nil, err
	}
	nCells := float64(full.Len())
	if nCells == 0 {
		return nil, fmt.Errorf("ladder: footprint %v holds no data", ladderBox)
	}
	byOwner := cl.GroupByOwner(keys)
	owners := make([]dht.NodeID, 0, len(byOwner))
	for id := range byOwner {
		owners = append(owners, id)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	var shares []query.Result
	var shareCells float64
	for _, id := range owners {
		r, err := cl.Fetch(byOwner[id])
		if err != nil {
			return nil, err
		}
		shares = append(shares, r)
		shareCells += float64(r.Len())
	}

	// geohash, query, dht.
	ns, _, _ := rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = geohash.Cover(ladderBox, workload.DefaultSpatialRes)
		}
	})
	m["geohash.cover_ns_per_key"] = ns / nKeys
	ns, _, allocs := rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = q.Footprint()
		}
	})
	m["query.footprint_ns_per_key"] = ns / nKeys
	m["query.footprint_allocs_per_key"] = allocs / nKeys
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := query.GetColumnar()
			for _, s := range shares {
				c.MergeResult(s)
			}
			sink = c.Len()
			c.Release()
		}
	})
	m["query.columnar_merge_ns_per_cell"] = ns / shareCells
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = cl.GroupByOwner(keys)
		}
	})
	m["dht.group_ns_per_key"] = ns / nKeys

	// stash: standalone shards holding F.
	resident := stash.NewGraph(stash.DefaultConfig())
	putAll(resident, keys, full)
	var b0, a0 float64
	ns, b0, a0 = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = resident.GetBatch(keys)
		}
	})
	m["stash.get_ns_per_key"] = ns / nKeys
	m["stash.get_b_per_key"] = b0 / nKeys
	m["stash.get_allocs_per_key"] = a0 / nKeys
	empty := stash.NewGraph(stash.DefaultConfig())
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = empty.GetBatch(keys)
		}
	})
	m["stash.get_miss_ns_per_key"] = ns / nKeys
	day := temporal.At(workload.DefaultDay().Start, temporal.Day)
	cLat, cLon := ladderBox.Center()
	stale := stash.NewGraph(stash.DefaultConfig())
	putAll(stale, keys, full)
	stale.PLM().MarkStale(stash.BlockRef{Prefix: geohash.Encode(cLat, cLon, galileo.DefaultBlockPrefixLen), Day: day})
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = stale.GetBatch(keys)
		}
	})
	m["stash.get_stale_ns_per_key"] = ns / nKeys
	up, _ := q.RollUp()
	parents, err := up.Footprint()
	if err != nil {
		return nil, err
	}
	// Only parents wholly inside F have all 32 children resident; the
	// rest cost a failed plan, as they do on the serve path.
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = resident.DeriveBatch(parents)
		}
	})
	m["stash.derive_ns_per_key"] = ns / float64(len(parents))
	ns, _, allocs = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := stash.NewGraph(stash.DefaultConfig())
			b.StartTimer()
			g.Put(full)
		}
	})
	m["stash.put_ns_per_cell"] = ns / nCells
	m["stash.put_allocs_per_cell"] = allocs / nCells
	// A shard whose capacity is one footprint, fed two disjoint footprints
	// in turn: every Put breaches capacity and evicts to the safe limit.
	other, err := cl.Query(baseQuery(geohash.Box{
		MinLat: ladderBox.MinLat, MaxLat: ladderBox.MaxLat,
		MinLon: ladderBox.MaxLon + 1, MaxLon: ladderBox.MaxLon + 1 + ladderBox.Width(),
	}))
	if err != nil {
		return nil, err
	}
	small := stash.DefaultConfig()
	small.Capacity = full.Len()
	full2 := stash.NewGraph(small)
	full2.Put(other)
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				full2.Put(full)
			} else {
				full2.Put(other)
			}
		}
	})
	m["stash.put_evict_ns_per_cell"] = ns / ((nCells + float64(other.Len())) / 2)

	// namgen, galileo: a basic system of its own, so scans never meet a cache.
	gen := namgen.New(cluster.DefaultConfig().Seed)
	prefix := geohash.Encode(cLat, cLon, galileo.DefaultBlockPrefixLen)
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = gen.Block(prefix, day)
		}
	})
	m["namgen.block_ns_per_point"] = ns / float64(gen.PointsPerBlock)
	basic := galileo.NewCluster(e.c.Ring(), gen, simnet.Default(), simnet.NewMeter())
	points := func() (n int64) {
		for _, id := range e.c.Ring().Nodes() {
			n += basic.Store(id).PointsScanned()
		}
		return n
	}
	var scanned, blocks, fetches float64
	ns, _, allocs = rung(func(b *testing.B) {
		p0, b0 := points(), basic.BlocksRead()
		for i := 0; i < b.N; i++ {
			sink, _ = basic.FetchCells(keys)
		}
		scanned += float64(points() - p0)
		blocks += float64(basic.BlocksRead() - b0)
		fetches += float64(b.N)
	})
	m["galileo.fetch_ns_per_key"] = ns / nKeys
	m["galileo.fetch_ns_per_point"] = ns / (scanned / fetches)
	m["galileo.fetch_allocs_per_key"] = allocs / nKeys
	m["galileo.blocks_per_key"] = blocks / fetches / nKeys

	// wire.
	encoded := wire.EncodeResult(full)
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf := wire.AppendResult(wire.GetBuf(), full)
			sink = len(buf)
			wire.PutBuf(buf)
		}
	})
	m["wire.encode_result_ns_per_cell"] = ns / nCells
	ns, _, allocs = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = wire.DecodeResult(encoded)
		}
	})
	m["wire.decode_result_ns_per_cell"] = ns / nCells
	m["wire.decode_result_allocs_per_cell"] = allocs / nCells
	m["wire.result_b_per_cell"] = float64(len(encoded)) / nCells
	sorted := append([]cell.Key(nil), keys...)
	wire.SortKeys(sorted)
	encodedKeys := wire.EncodeKeysDelta(sorted)
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf := wire.AppendKeysDelta(wire.GetBuf(), sorted)
			sink = len(buf)
			wire.PutBuf(buf)
		}
	})
	m["wire.encode_keys_ns_per_key"] = ns / nKeys
	ns, _, _ = rung(func(b *testing.B) {
		var dst []cell.Key
		for i := 0; i < b.N; i++ {
			dst, _ = wire.DecodeKeysDeltaInto(dst[:0], encodedKeys)
		}
		sink = dst
	})
	m["wire.decode_keys_ns_per_key"] = ns / nKeys
	m["wire.keys_delta_b_per_key"] = float64(len(encodedKeys)) / nKeys

	// cluster: fan-in at the share count F produces, one node's warm share,
	// the coordinator's warm fetch.
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = cluster.MergeResults(shares, 0)
		}
	})
	m["cluster.fanin_ns_per_cell"] = ns / shareCells
	big := owners[0]
	for _, id := range owners {
		if len(byOwner[id]) > len(byOwner[big]) {
			big = id
		}
	}
	ns, _, _ = rung(func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			sink, _ = e.c.Node(big).Submit(ctx, byOwner[big])
		}
	})
	m["cluster.submit_ns_per_key"] = ns / float64(len(byOwner[big]))
	ns, _, allocs = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = cl.Fetch(keys)
		}
	})
	m["cluster.fetch_ns_per_key"] = ns / nKeys
	m["cluster.fetch_allocs_per_key"] = allocs / nKeys

	// frontend: every key served from the front-end graph, no prefetch.
	fe := frontend.NewClient(cl, frontend.Config{CacheCells: frontend.DefaultConfig().CacheCells})
	if _, err := fe.Query(q); err != nil {
		return nil, err
	}
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = fe.Query(q)
		}
	})
	m["frontend.hit_ns_per_key"] = ns / nKeys

	// export.
	var w countWriter
	if err := export.WriteGeoJSON(&w, full); err != nil {
		return nil, err
	}
	m["export.geojson_b_per_cell"] = float64(w.n) / nCells
	ns, _, _ = rung(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = export.WriteGeoJSON(io.Discard, full)
		}
	})
	m["export.geojson_ns_per_cell"] = ns / nCells

	return m, nil
}

// putAll makes every key of a footprint resident: the cells that hold data,
// and negative-cache entries for the rest.
func putAll(g *stash.Graph, keys []cell.Key, res query.Result) {
	g.Put(res)
	var empty []cell.Key
	for _, k := range keys {
		if _, ok := res.Cells[k]; !ok {
			empty = append(empty, k)
		}
	}
	if len(empty) > 0 {
		g.PutEmpty(empty)
	}
}
