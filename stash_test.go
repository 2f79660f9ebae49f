package stash_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"stash"
)

// newSystem assembles a small metered cluster through the public API only.
func newSystem(t *testing.T, mutate func(*stash.Config)) *stash.Cluster {
	t.Helper()
	cfg := stash.DefaultConfig()
	cfg.Nodes = 4
	cfg.PointsPerBlock = 64
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := stash.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	return sys
}

func stateQuery() stash.Query {
	return stash.Query{
		Box:         stash.Box{MinLat: 33, MaxLat: 37, MinLon: -103, MaxLon: -95},
		Time:        stash.DayRange(2015, 2, 2),
		SpatialRes:  4,
		TemporalRes: stash.Day,
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := newSystem(t, nil)
	q := stateQuery()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no cells returned")
	}
	if res.TotalCount("temperature") == 0 {
		t.Fatal("no observations aggregated")
	}
	// Warm round must return identical content.
	time.Sleep(50 * time.Millisecond)
	res2, err := sys.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalCount("temperature") != res.TotalCount("temperature") {
		t.Errorf("warm count %d != cold count %d",
			res2.TotalCount("temperature"), res.TotalCount("temperature"))
	}
}

func TestPublicAPIOLAPOperators(t *testing.T) {
	q := stateQuery()
	panned := q.Pan(stash.East, 0.1)
	if panned.Box == q.Box {
		t.Error("pan did not move the box")
	}
	shrunk := q.DiceShrink(0.2)
	if !q.Box.ContainsBox(shrunk.Box) {
		t.Error("dice shrink did not nest")
	}
	if down, ok := q.DrillDown(); !ok || down.SpatialRes != q.SpatialRes+1 {
		t.Error("drill-down failed")
	}
	if up, ok := q.RollUp(); !ok || up.SpatialRes != q.SpatialRes-1 {
		t.Error("roll-up failed")
	}
}

func TestPublicAPIGeohashHelpers(t *testing.T) {
	gh := stash.EncodeGeohash(37.7749, -122.4194, 5)
	if gh != "9q8yy" {
		t.Errorf("EncodeGeohash = %q", gh)
	}
	box, err := stash.DecodeGeohash(gh)
	if err != nil {
		t.Fatal(err)
	}
	if !box.Contains(37.7749, -122.4194) {
		t.Error("decoded box does not contain the point")
	}
	if _, err := stash.DecodeGeohash("not a geohash"); err == nil {
		t.Error("invalid geohash accepted")
	}
}

func TestPublicAPIElasticComparator(t *testing.T) {
	cfg := stash.DefaultElasticConfig()
	cfg.Shards = 30
	cfg.PointsPerBlock = 64
	es := stash.NewElastic(cfg)
	res, err := es.Query(stateQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("elastic comparator returned no cells")
	}
}

func TestPublicAPIReplicationWiring(t *testing.T) {
	sys := newSystem(t, func(cfg *stash.Config) {
		cfg.Replication = stash.DefaultReplicationConfig()
	})
	if _, err := sys.Client().Query(stateQuery()); err != nil {
		t.Fatal(err)
	}
	for _, n := range sys.Nodes() {
		if n.Guest() == nil || n.Routing() == nil {
			t.Error("replication-enabled node missing guest graph or routing table")
		}
	}
}

func TestPublicAPICostModel(t *testing.T) {
	m := stash.DefaultCostModel()
	if !(m.DiskCost(1, 0) > m.NetCost(0) && m.NetCost(0) > m.MemCost(1)) {
		t.Error("cost ordering disk > net > mem violated")
	}
}

func TestPublicAPISizeClasses(t *testing.T) {
	dLat, dLon := stash.Country.Extent()
	if dLat != 16 || dLon != 32 {
		t.Errorf("country extent = (%v,%v)", dLat, dLon)
	}
	if len(stash.Attributes) != 4 {
		t.Errorf("attributes = %v", stash.Attributes)
	}
}

func TestPublicAPITimedQuery(t *testing.T) {
	sys := newSystem(t, nil)
	_, d, err := sys.Client().TimedQuery(stateQuery())
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("latency not measured")
	}
}

func TestPublicAPIUpdateBlock(t *testing.T) {
	sys := newSystem(t, nil)
	q := stateQuery()
	if _, err := sys.Client().Query(q); err != nil {
		t.Fatal(err)
	}
	day, err := stash.ParseTimeLabel("2015-02-02", stash.Day)
	if err != nil {
		t.Fatal(err)
	}
	sys.UpdateBlock("9y6", day) // rewrite one block under the query
	res, err := sys.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("post-update query empty")
	}
}

func TestPublicAPIExports(t *testing.T) {
	sys := newSystem(t, nil)
	res, err := sys.Client().Query(stateQuery())
	if err != nil {
		t.Fatal(err)
	}
	var gj, csvBuf bytes.Buffer
	if err := stash.WriteGeoJSON(&gj, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gj.String(), "FeatureCollection") {
		t.Error("GeoJSON export malformed")
	}
	if err := stash.WriteCSV(&csvBuf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "geohash") {
		t.Error("CSV export malformed")
	}
}

func TestPublicAPIFrontend(t *testing.T) {
	sys := newSystem(t, nil)
	fe := stash.NewFrontendClient(sys.Client(), stash.DefaultFrontendConfig())
	q := stateQuery()
	if _, err := fe.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Query(q); err != nil {
		t.Fatal(err)
	}
	fe.Wait()
	if fe.Stats().FullyLocal == 0 {
		t.Error("repeat query not served locally by the front-end tier")
	}
}

func TestPublicAPIHistograms(t *testing.T) {
	sys := newSystem(t, func(cfg *stash.Config) { cfg.Histograms = true })
	res, err := sys.Client().Query(stateQuery())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for k := range res.Cells {
		if h := res.Hists[k].Hist("temperature"); h != nil {
			found = true
			if h.Quantile(0.5) < h.Lo || h.Quantile(0.5) > h.Hi {
				t.Error("median outside histogram bounds")
			}
		}
	}
	if !found {
		t.Error("no histograms despite Config.Histograms")
	}
}

func TestPublicAPIPolygonQuery(t *testing.T) {
	sys := newSystem(t, nil)
	tri := stash.Polygon{{Lat: 34, Lon: -100}, {Lat: 38, Lon: -97}, {Lat: 34, Lon: -94}}
	q, err := stash.NewPolygonQuery(tri, stash.DayRange(2015, 2, 2), 3, stash.Day)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("polygon query returned nothing")
	}
}

// TestPublicAPIFaultInjection drives the chaos surface end to end through
// the facade: a fault plan, a resilient coordinator, a crashed node, and a
// partial result with an honest coverage report.
func TestPublicAPIFaultInjection(t *testing.T) {
	fp := stash.NewFaultPlan(5)
	sys := newSystem(t, func(cfg *stash.Config) {
		cfg.Faults = fp
		rc := stash.DefaultResilienceConfig()
		rc.RequestTimeout = 25 * time.Millisecond
		rc.HelperReroute = false
		rc.ScatterFallback = false
		cfg.Resilience = rc
	})
	q := stash.Query{
		Box:         stash.Box{MinLat: 30, MaxLat: 40, MinLon: -100, MaxLon: -90},
		Time:        stash.DayRange(2015, 2, 2),
		SpatialRes:  3,
		TemporalRes: stash.Day,
	}
	res, err := sys.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coverage.Complete() {
		t.Fatalf("healthy query partial: %v", res.Coverage)
	}

	// Crash a node that owns part of the footprint and query again.
	keys, err := q.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	var victim stash.NodeID
	for id := range sys.Client().GroupByOwner(keys) {
		victim = id
		break
	}
	sys.Faults().Crash(int(victim))
	partial, err := sys.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cov := partial.Coverage
	if cov.Complete() || cov.Missing()+cov.Degraded == 0 {
		t.Fatalf("crashed owner but coverage reads %v", cov)
	}
	if cov.String() == "" || stash.Retryable(nil) {
		t.Fatal("coverage/string/retryable surface broken")
	}
	sys.Faults().Recover(int(victim))

	// The schedule generator is reachable and deterministic.
	a := stash.GenerateFaultSchedule(1, 4, 10, 3, stash.FaultCrash, stash.FaultReject)
	b := stash.GenerateFaultSchedule(1, 4, 10, 3, stash.FaultCrash, stash.FaultReject)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedule generation broken: %d vs %d entries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	var k stash.FaultKind = stash.FaultPause
	if k.String() == "" {
		t.Fatal("fault kind string empty")
	}
	_ = []error{stash.ErrNoCoverage, stash.ErrRejected, stash.ErrUnavailable, stash.ErrFaulted}
	var sf stash.ScheduledFault = a[0]
	if sf.String() == "" {
		t.Fatal("scheduled fault string empty")
	}
}
