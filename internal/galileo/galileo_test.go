package galileo

import (
	"testing"

	"stash/internal/cell"
	"stash/internal/dht"
	"stash/internal/geohash"
	"stash/internal/namgen"
	"stash/internal/query"
	"stash/internal/simnet"
	"stash/internal/temporal"
)

func testCluster(t *testing.T, nodes int) (*Cluster, *simnet.Meter) {
	t.Helper()
	ring, err := dht.NewRing(nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	meter := simnet.NewMeter()
	gen := &namgen.Generator{Seed: 42, PointsPerBlock: 64}
	return NewCluster(ring, gen, simnet.Default(), meter), meter
}

func smallQuery() query.Query {
	return query.Query{
		Box:         geohash.Box{MinLat: 35, MaxLat: 37, MinLon: -100, MaxLon: -97},
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  3,
		TemporalRes: temporal.Day,
	}
}

func TestClusterQueryBasics(t *testing.T) {
	c, meter := testCluster(t, 4)
	q := smallQuery()
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("query over populated region returned no cells")
	}
	keys, _ := q.Footprint()
	want := map[cell.Key]bool{}
	for _, k := range keys {
		want[k] = true
	}
	for k := range res.Cells {
		if !want[k] {
			t.Errorf("result contains key %v outside footprint", k)
		}
	}
	if res.TotalCount("temperature") == 0 {
		t.Error("no observations aggregated")
	}
	if meter.Elapsed() == 0 {
		t.Error("no disk cost charged")
	}
	if c.BlocksRead() == 0 {
		t.Error("no blocks read")
	}
}

func TestQueryValidation(t *testing.T) {
	c, _ := testCluster(t, 2)
	bad := smallQuery()
	bad.SpatialRes = 0
	if _, err := c.Query(bad); err == nil {
		t.Error("invalid query accepted by cluster")
	}
	if _, err := c.Store(0).Query(bad); err == nil {
		t.Error("invalid query accepted by store")
	}
}

func TestClusterEqualsSingleNode(t *testing.T) {
	// The same data partitioned over N nodes must aggregate to exactly what
	// a single node computes: partitioning must not lose or double data.
	single, _ := testCluster(t, 1)
	multi, _ := testCluster(t, 7)
	q := smallQuery()
	r1, err := single.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := multi.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r7.Len() {
		t.Fatalf("cell counts differ: 1-node=%d 7-node=%d", r1.Len(), r7.Len())
	}
	for k, s1 := range r1.Cells {
		s7, ok := r7.Cells[k]
		if !ok {
			t.Fatalf("cell %v missing from 7-node result", k)
		}
		for attr := range s1.Stats {
			a, b := s1.Stats[attr], s7.Stats[attr]
			if a.Count != b.Count || a.Min != b.Min || a.Max != b.Max {
				t.Fatalf("cell %v attr %v differs: %+v vs %+v", k, cell.Attr(attr), a, b)
			}
		}
	}
}

func TestFetchCellsFullExtentReusable(t *testing.T) {
	// A cell fetched via a small query must be identical to the same cell
	// fetched via a larger query: cells are full-extent aggregates.
	c, _ := testCluster(t, 3)
	day := temporal.MustParse("2015-02-02", temporal.Day)
	k := cell.Key{Geohash: geohash.MustPack("9v1"), Time: day}

	r1, err := c.FetchCells([]cell.Key{k})
	if err != nil {
		t.Fatal(err)
	}
	neighbors := k.SpatialNeighbors()
	r2, err := c.FetchCells(append(neighbors, k))
	if err != nil {
		t.Fatal(err)
	}
	s1, ok1 := r1.Cells[k]
	s2, ok2 := r2.Cells[k]
	if !ok1 || !ok2 {
		t.Fatalf("cell %v missing: solo=%v group=%v", k, ok1, ok2)
	}
	if s1.Count("temperature") != s2.Count("temperature") {
		t.Errorf("cell content depends on fetch context: %d vs %d",
			s1.Count("temperature"), s2.Count("temperature"))
	}
}

func TestFetchCellsMixedResolutionRejected(t *testing.T) {
	c, _ := testCluster(t, 2)
	keys := []cell.Key{
		cell.MustKey("9q8", "2015-02-02", temporal.Day),
		cell.MustKey("9q8y", "2015-02-02", temporal.Day),
	}
	if _, err := c.Store(0).FetchCells(keys); err == nil {
		t.Error("mixed spatial resolutions accepted")
	}
	keys = []cell.Key{
		cell.MustKey("9q8", "2015-02-02", temporal.Day),
		cell.MustKey("9q9", "2015-02", temporal.Month),
	}
	if _, err := c.Store(0).FetchCells(keys); err == nil {
		t.Error("mixed temporal resolutions accepted")
	}
}

func TestFetchCellsEmpty(t *testing.T) {
	c, _ := testCluster(t, 2)
	res, err := c.Store(0).FetchCells(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Error("empty fetch returned cells")
	}
}

func TestStoreOnlyScansOwnedPartitions(t *testing.T) {
	c, _ := testCluster(t, 5)
	q := smallQuery()
	keys, _ := q.Footprint()
	var total int64
	for _, id := range c.Ring().Nodes() {
		st := c.Store(id)
		res, err := st.FetchCells(keys)
		if err != nil {
			t.Fatal(err)
		}
		total += res.TotalCount("temperature")
	}
	// Each shard scans only its partitions, so summing per-shard counts
	// must equal the whole-cluster count (no overlap).
	whole, err := c.FetchCells(keys)
	if err != nil {
		t.Fatal(err)
	}
	if total != whole.TotalCount("temperature") {
		t.Errorf("per-shard total %d != cluster total %d (overlapping scans?)",
			total, whole.TotalCount("temperature"))
	}
}

func TestBlocksForKeysCoarseGeohash(t *testing.T) {
	// A precision-2 cell spans 32 prefix-3 blocks; the shard must expand it
	// and keep only blocks whose partition (prefix-2) it owns.
	c, _ := testCluster(t, 3)
	day := temporal.MustParse("2015-02-02", temporal.Day)
	k := cell.Key{Geohash: geohash.MustPack("9q"), Time: day}
	var total int
	for _, id := range c.Ring().Nodes() {
		blocks, err := c.Store(id).BlocksForKeys([]cell.Key{k})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if b.Prefix[:2] != "9q" {
				t.Errorf("block %v outside coarse key", b)
			}
			if c.Ring().OwnerOfPartition(geohash.MustPack(b.Prefix[:2])) != id {
				t.Errorf("node %v listed foreign block %v", id, b)
			}
		}
		total += len(blocks)
	}
	if total != 32 {
		t.Errorf("total blocks for precision-2 key = %d, want 32", total)
	}
}

func TestBlockGranularityFinerThanPartition(t *testing.T) {
	// Ownership follows the 2-char partition, blocks are 3-char: all 32
	// blocks under one partition belong to the partition's single owner.
	c, _ := testCluster(t, 5)
	day := temporal.MustParse("2015-02-02", temporal.Day)
	owner := c.Ring().OwnerOfPartition(geohash.MustPack("9q"))
	blocks, err := c.Store(owner).BlocksForKeys([]cell.Key{{Geohash: geohash.MustPack("9q"), Time: day}})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 32 {
		t.Errorf("partition owner sees %d blocks, want all 32", len(blocks))
	}
	for _, id := range c.Ring().Nodes() {
		if id == owner {
			continue
		}
		bs, _ := c.Store(id).BlocksForKeys([]cell.Key{{Geohash: geohash.MustPack("9q"), Time: day}})
		if len(bs) != 0 {
			t.Errorf("non-owner %v sees %d blocks of 9q", id, len(bs))
		}
	}
}

func TestBlocksForKeysMultiDay(t *testing.T) {
	c, _ := testCluster(t, 1)
	month := temporal.MustParse("2015-02", temporal.Month)
	k := cell.Key{Geohash: geohash.MustPack("9q8"), Time: month}
	blocks, err := c.Store(0).BlocksForKeys([]cell.Key{k})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 28 {
		t.Errorf("month key over one prefix = %d blocks, want 28", len(blocks))
	}
}

func TestBlocksForKeysDeduplicates(t *testing.T) {
	c, _ := testCluster(t, 1)
	day := temporal.MustParse("2015-02-02", temporal.Day)
	// Two sibling precision-4 cells share one 3-char block.
	keys := []cell.Key{
		{Geohash: geohash.MustPack("9q1b"), Time: day},
		{Geohash: geohash.MustPack("9q1c"), Time: day},
	}
	blocks, err := c.Store(0).BlocksForKeys(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Errorf("sibling cells should share one block, got %d", len(blocks))
	}
}

func TestDiskCostProportionalToBlocks(t *testing.T) {
	ring, _ := dht.NewRing(1, 2)
	gen := &namgen.Generator{Seed: 42, PointsPerBlock: 64}
	meter := simnet.NewMeter()
	st := NewStore(ring, 0, gen, simnet.Default(), meter)
	day := temporal.MustParse("2015-02-02", temporal.Day)

	if _, err := st.FetchCells([]cell.Key{{Geohash: geohash.MustPack("9q1"), Time: day}}); err != nil {
		t.Fatal(err)
	}
	one := meter.Elapsed()
	meter.Reset()
	if _, err := st.FetchCells([]cell.Key{
		{Geohash: geohash.MustPack("9q1"), Time: day}, {Geohash: geohash.MustPack("9r1"), Time: day}, {Geohash: geohash.MustPack("9w1"), Time: day},
	}); err != nil {
		t.Fatal(err)
	}
	three := meter.Elapsed()
	if three != 3*one {
		t.Errorf("3-block fetch cost %v, want 3x single-block %v", three, one)
	}
}

func TestFetchCellsReadsEachBlockOnce(t *testing.T) {
	// The grouped scan must read every covering block exactly once per
	// request, no matter how many requested keys share a block.
	ring, _ := dht.NewRing(1, 2)
	gen := &namgen.Generator{Seed: 42, PointsPerBlock: 64}
	st := NewStore(ring, 0, gen, simnet.Default(), simnet.NewMeter())
	day := temporal.MustParse("2015-02-02", temporal.Day)
	// Eight precision-4 keys spanning two 3-char blocks (4 siblings each),
	// plus one precision-3 key that is itself a third block.
	keys := []cell.Key{
		{Geohash: geohash.MustPack("9q1b"), Time: day}, {Geohash: geohash.MustPack("9q1c"), Time: day},
		{Geohash: geohash.MustPack("9q1f"), Time: day}, {Geohash: geohash.MustPack("9q1g"), Time: day},
		{Geohash: geohash.MustPack("9q2b"), Time: day}, {Geohash: geohash.MustPack("9q2c"), Time: day},
		{Geohash: geohash.MustPack("9q2f"), Time: day}, {Geohash: geohash.MustPack("9q2g"), Time: day},
	}
	blocks, err := st.BlocksForKeys(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("expected 2 covering blocks, got %d", len(blocks))
	}
	before := st.BlocksRead()
	if _, err := st.FetchCells(keys); err != nil {
		t.Fatal(err)
	}
	if got := st.BlocksRead() - before; got != int64(len(blocks)) {
		t.Errorf("fetch of %d keys over %d blocks read %d blocks, want %d",
			len(keys), len(blocks), got, len(blocks))
	}
	// Repeating the request scans the same blocks again (the store is
	// stateless), but still once each.
	before = st.BlocksRead()
	if _, err := st.FetchCells(keys); err != nil {
		t.Fatal(err)
	}
	if got := st.BlocksRead() - before; got != int64(len(blocks)) {
		t.Errorf("repeat fetch read %d blocks, want %d", got, len(blocks))
	}
}

func TestFetchCellsParallelMatchesSerial(t *testing.T) {
	// The bounded-parallel block scan must be invisible in the results: same
	// cells, same aggregates, same number of block reads as the serial scan.
	newStore := func() *Store {
		ring, _ := dht.NewRing(1, 2)
		gen := &namgen.Generator{Seed: 42, PointsPerBlock: 64}
		return NewStore(ring, 0, gen, simnet.Default(), simnet.NewMeter())
	}
	serial := newStore()
	par := newStore()
	par.SetParallelReads(4)

	day := temporal.MustParse("2015-02-02", temporal.Day)
	keys := []cell.Key{
		{Geohash: geohash.MustPack("9q1"), Time: day}, {Geohash: geohash.MustPack("9q2"), Time: day},
		{Geohash: geohash.MustPack("9r1"), Time: day}, {Geohash: geohash.MustPack("9w1"), Time: day},
		{Geohash: geohash.MustPack("9y1"), Time: day}, {Geohash: geohash.MustPack("9z1"), Time: day},
	}
	rs, err := serial.FetchCells(keys)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := par.FetchCells(keys)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != rp.Len() {
		t.Fatalf("cell counts differ: serial=%d parallel=%d", rs.Len(), rp.Len())
	}
	for k, ss := range rs.Cells {
		sp, ok := rp.Cells[k]
		if !ok {
			t.Fatalf("cell %v missing from parallel result", k)
		}
		for attr := range ss.Stats {
			a, b := ss.Stats[attr], sp.Stats[attr]
			if a.Count != b.Count || a.Min != b.Min || a.Max != b.Max || a.Sum != b.Sum {
				t.Fatalf("cell %v attr %v differs: %+v vs %+v", k, cell.Attr(attr), a, b)
			}
		}
	}
	if serial.BlocksRead() != par.BlocksRead() {
		t.Errorf("block reads differ: serial=%d parallel=%d",
			serial.BlocksRead(), par.BlocksRead())
	}
}

// TestFetchCellsHistograms: with histograms on, every cell of the reply has
// a distribution beside it for every observed attribute, accounting for
// exactly the observations its stat counts — on the serial scan and when the
// parallel scan's per-worker partials of one coarse cell fold together.
func TestFetchCellsHistograms(t *testing.T) {
	day := temporal.MustParse("2015-02-02", temporal.Day)
	keys := []cell.Key{ // coarser than a block: each spans 32 of them
		{Geohash: geohash.MustPack("9q"), Time: day}, {Geohash: geohash.MustPack("9r"), Time: day},
	}
	for _, parallel := range []int{1, 4} {
		ring, _ := dht.NewRing(1, 2)
		st := NewStore(ring, 0, &namgen.Generator{Seed: 42, PointsPerBlock: 16}, simnet.Default(), simnet.NewMeter())
		st.SetHistograms(true)
		st.SetParallelReads(parallel)
		res, err := st.FetchCells(keys)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != len(keys) || len(res.Hists) != len(keys) {
			t.Fatalf("parallel=%d: %d cells, %d with distributions, want %d", parallel, res.Len(), len(res.Hists), len(keys))
		}
		for k, s := range res.Cells {
			for _, name := range namgen.Attributes {
				h := res.Hists[k].Hist(name)
				if h == nil || h.Total() != s.Count(name) || h.Total() == 0 {
					t.Fatalf("parallel=%d: %v %s: histogram %+v for count %d", parallel, k, name, h, s.Count(name))
				}
			}
		}
	}
}

func TestBlockIDString(t *testing.T) {
	b := BlockID{Prefix: "9q", Day: temporal.MustParse("2015-02-02", temporal.Day)}
	if b.String() != "9q/2015-02-02" {
		t.Errorf("String = %q", b.String())
	}
}

func BenchmarkStoreQueryCountySize(b *testing.B) {
	ring, _ := dht.NewRing(1, 2)
	gen := &namgen.Generator{Seed: 42, PointsPerBlock: 128}
	st := NewStore(ring, 0, gen, simnet.Model{}, simnet.NewMeter())
	q := query.Query{
		Box:         geohash.Box{MinLat: 35, MaxLat: 35.9, MinLon: -98, MaxLon: -96.9},
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  4,
		TemporalRes: temporal.Day,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}
