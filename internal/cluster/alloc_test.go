package cluster

import (
	"fmt"
	"testing"
	"time"

	"stash/internal/cell"
	"stash/internal/dht"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/temporal"
	"stash/internal/wire"
	"stash/internal/workload"
)

// ladderQuery is the benchmark's state-size footprint F: 576 keys at
// resolution 4 on the default day.
func ladderQuery() query.Query {
	return query.Query{
		Box:         geohash.Box{MinLat: 36, MaxLat: 40, MinLon: -108, MaxLon: -100},
		Time:        workload.DefaultDay(),
		SpatialRes:  workload.DefaultSpatialRes,
		TemporalRes: temporal.Day,
	}
}

// warmCluster is a default cluster that has answered q once and finished
// populating its caches, so a repeat of q is served from memory.
func warmCluster(t *testing.T, qs ...query.Query) *Cluster {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	for _, q := range qs {
		if _, err := c.Client().Query(q); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if s := c.TotalStats(); s.PopulatedCells == s.DiskCells {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatal("cache population did not finish")
		}
	}
}

// TestResultWireSizeUnchanged: the answer to F costs the transport exactly the
// bytes it did with map-backed summaries (recorded at the parent commit:
// 91012 bytes for 576 cells, the benchmark's wire.result_b_per_cell of
// 158.007). The byte model prices every hop, so a drift here would move
// charged_ms_per_step on every workload.
func TestResultWireSizeUnchanged(t *testing.T) {
	c := warmCluster(t)
	res, err := c.Client().Query(ladderQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 576 {
		t.Fatalf("F holds %d cells, want 576", res.Len())
	}
	if got := wire.ResultSize(res); got != 91012 || len(wire.EncodeResult(res)) != got {
		t.Errorf("F encodes to %d bytes (ResultSize %d), the format gives 91012", len(wire.EncodeResult(res)), got)
	}
}

// TestWarmQueryAllocs is the allocation gate on the paper's product, a warm
// step: Client.Query over a resident footprint allocates the answer map, the
// owner grouping and per-share plumbing — not one object per cell. The bound
// holds at 144 keys and at the state-size 576 alike: what a share costs may
// differ between them, what a cell costs may not (at the parent commit the
// larger one made about 1200 allocations, two per cell).
func TestWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const maxAllocs = 100
	small := ladderQuery()
	small.Box = geohash.Box{MinLat: 36, MaxLat: 37.9, MinLon: -108, MaxLon: -104.1} // a quarter of F: 144 keys
	c := warmCluster(t, ladderQuery())
	cl := c.Client()
	for _, q := range []query.Query{small, ladderQuery()} {
		keys, err := q.Footprint()
		if err != nil || len(keys) != 144 && len(keys) != 576 {
			t.Fatalf("footprint of %d keys (%v), want 144 and 576", len(keys), err)
		}
		for i := 0; i < 4; i++ { // fill the reply and arena pools at this size
			if _, err := cl.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		blocks := c.TotalStats().BlocksRead
		allocs := testing.AllocsPerRun(30, func() {
			if res, err := cl.Query(q); err != nil || res.Len() != len(keys) {
				t.Fatalf("warm query: %d cells of %d, %v", res.Len(), len(keys), err)
			}
		})
		t.Logf("warm Client.Query over %d keys: %.0f allocations", len(keys), allocs)
		if allocs > maxAllocs {
			t.Errorf("warm Client.Query over %d keys allocates %.0f objects, want <= %d", len(keys), allocs, maxAllocs)
		}
		if c.TotalStats().BlocksRead != blocks {
			t.Errorf("the %d-key query was not warm: it read disk", len(keys))
		}
	}
}

// groupByOwnerReference is the grouping as it was written before the counting
// pass: a map for dedup, a map per coarse key, append-grown shares.
func groupByOwnerReference(ring *dht.Ring, keys []cell.Key) map[dht.NodeID][]cell.Key {
	plen := ring.PrefixLen()
	out := map[dht.NodeID][]cell.Key{}
	seenKey := map[cell.Key]bool{}
	for _, k := range keys {
		if seenKey[k] {
			continue
		}
		seenKey[k] = true
		if k.Geohash.Len() >= plen {
			id := ring.Owner(k.Geohash)
			out[id] = append(out[id], k)
			continue
		}
		seen := map[dht.NodeID]bool{}
		for _, p := range k.Geohash.Extensions(plen) {
			if id := ring.OwnerOfPartition(p); !seen[id] {
				seen[id] = true
				out[id] = append(out[id], k)
			}
		}
	}
	return out
}

// TestGroupByOwnerMatchesReference: same shares, same order within each, for
// a footprint with repeats and with keys coarser than the partition prefix;
// the shares are capped so that appending to one cannot reach its neighbor in
// the shared backing array; and the whole grouping is a few allocations.
func TestGroupByOwnerMatchesReference(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.Nodes = 7 })
	cl := c.Client()
	keys, err := ladderQuery().Footprint()
	if err != nil {
		t.Fatal(err)
	}
	day := keys[0].Time
	keys = append(keys, keys[10:40]...) // repeats
	for _, gh := range []string{"9", "d", "9"} {
		keys = append(keys, cell.Key{Geohash: geohash.MustPack(gh), Time: day}) // coarse: every owner under it
	}
	got, want := cl.GroupByOwner(keys), groupByOwnerReference(c.Ring(), keys)
	if len(got) != len(want) {
		t.Fatalf("%d owners, reference %d", len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%v: share %v, reference %v", id, g, w)
		}
		if cap(g) != len(g) {
			t.Errorf("%v: share of %d keys has capacity %d: an append would overwrite the next share", id, len(g), cap(g))
		}
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, func() { cl.GroupByOwner(keys) }); allocs > 4 {
		t.Errorf("GroupByOwner allocates %.0f objects, want the map and the backing array (<= 4)", allocs)
	}
}
