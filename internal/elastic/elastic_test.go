package elastic

import (
	"math/rand"
	"testing"
	"time"

	"stash/internal/dht"
	"stash/internal/galileo"
	"stash/internal/geohash"
	"stash/internal/namgen"
	"stash/internal/query"
	"stash/internal/simnet"
	"stash/internal/temporal"
)

func testEngine(meter *simnet.Meter) *Engine {
	cfg := DefaultConfig()
	cfg.Shards = 60
	cfg.PointsPerBlock = 64
	cfg.Sleeper = meter
	// Point-scan-dominated model, as on real hardware where a query's disk
	// cost is bandwidth, not seeks; field-data warmth then saves only a
	// small fraction — the ES shape under overlapping queries.
	cfg.Model = simnet.Model{
		DiskSeek:  50 * time.Microsecond,
		DiskPoint: 4 * time.Microsecond,
		NetHop:    10 * time.Microsecond,
		MemCell:   30 * time.Nanosecond,
	}
	return New(cfg)
}

func countyQuery() query.Query {
	return query.Query{
		Box:         geohash.Box{MinLat: 35, MaxLat: 35.6, MinLon: -98, MaxLon: -96.8},
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  4,
		TemporalRes: temporal.Day,
	}
}

func TestQueryReturnsData(t *testing.T) {
	e := testEngine(simnet.NewMeter())
	res, err := e.Query(countyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 || res.TotalCount("temperature") == 0 {
		t.Fatal("empty result over populated region")
	}
}

func TestQueryValidation(t *testing.T) {
	e := testEngine(simnet.NewMeter())
	bad := countyQuery()
	bad.SpatialRes = 0
	if _, err := e.Query(bad); err == nil {
		t.Error("invalid query accepted")
	}
}

// TestMatchesGalileo pins the comparator to the reference aggregation: both
// engines must produce identical summaries for the same synthetic dataset,
// so benchmark contrasts measure serving paths, not data differences.
func TestMatchesGalileo(t *testing.T) {
	e := testEngine(simnet.NewMeter())
	ring, _ := dht.NewRing(1, 2)
	gen := &namgen.Generator{Seed: 42, PointsPerBlock: 64}
	store := galileo.NewStore(ring, 0, gen, simnet.Model{}, simnet.NewMeter())

	q := countyQuery()
	got, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("cells: es=%d galileo=%d", got.Len(), want.Len())
	}
	for k, ws := range want.Cells {
		gs, ok := got.Cells[k]
		if !ok {
			t.Fatalf("cell %v missing from ES result", k)
		}
		if ws != gs {
			t.Fatalf("cell %v: %+v != %+v", k, ws, gs)
		}
	}
}

func TestRequestCacheExactHit(t *testing.T) {
	meter := simnet.NewMeter()
	e := testEngine(meter)
	q := countyQuery()
	r1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cold := meter.Elapsed()
	meter.Reset()
	r2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	warm := meter.Elapsed()
	if e.Stats().RequestHits != 1 {
		t.Fatalf("request hits = %d", e.Stats().RequestHits)
	}
	if warm*10 > cold {
		t.Errorf("exact duplicate not cheap: cold=%v warm=%v", cold, warm)
	}
	if r1.TotalCount("temperature") != r2.TotalCount("temperature") {
		t.Error("cached result differs")
	}
}

// TestOverlappingQueryMissesRequestCache is the crux of Fig. 8: a 10% pan
// misses the exact-match cache, gaining only the field-data seek savings.
func TestOverlappingQueryMissesRequestCache(t *testing.T) {
	meter := simnet.NewMeter()
	e := testEngine(meter)
	q := countyQuery()
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	cold := meter.Elapsed()
	meter.Reset()

	panned := q.Pan(geohash.East, 0.10)
	if _, err := e.Query(panned); err != nil {
		t.Fatal(err)
	}
	overlapping := meter.Elapsed()

	if e.Stats().RequestHits != 0 {
		t.Error("overlapping query hit the request cache")
	}
	if e.Stats().FieldDataHits == 0 {
		t.Error("overlapping query gained no field-data warmth")
	}
	// The gain must exist but stay small — the ES shape from the paper.
	if overlapping >= cold {
		t.Errorf("no benefit at all from overlap: %v >= %v", overlapping, cold)
	}
	if overlapping*4 < cold*3 {
		t.Errorf("overlap benefit implausibly large for ES: cold=%v overlapping=%v", cold, overlapping)
	}
}

func TestShardFanoutCostScalesWithShards(t *testing.T) {
	mFew := simnet.NewMeter()
	few := New(Config{Shards: 10, PointsPerBlock: 64, Sleeper: mFew, Model: simnet.Default(), Seed: 42})
	mMany := simnet.NewMeter()
	many := New(Config{Shards: 600, PointsPerBlock: 64, Sleeper: mMany, Model: simnet.Default(), Seed: 42})
	q := countyQuery()
	if _, err := few.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := many.Query(q); err != nil {
		t.Fatal(err)
	}
	if mMany.Elapsed() <= mFew.Elapsed() {
		t.Errorf("600-shard query (%v) not costlier than 10-shard (%v)", mMany.Elapsed(), mFew.Elapsed())
	}
}

func TestRequestCacheEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 10
	cfg.PointsPerBlock = 16
	cfg.RequestCacheSize = 2
	cfg.Sleeper = simnet.NewMeter()
	e := New(cfg)
	q := countyQuery()
	q2 := q.Pan(geohash.East, 0.5)
	q3 := q.Pan(geohash.West, 0.5)
	for _, qq := range []query.Query{q, q2, q3} {
		if _, err := e.Query(qq); err != nil {
			t.Fatal(err)
		}
	}
	// q was evicted (FIFO, size 2): re-running it must not hit.
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if e.Stats().RequestHits != 0 {
		t.Error("evicted entry served a hit")
	}
	// q3 is still resident.
	if _, err := e.Query(q3); err != nil {
		t.Fatal(err)
	}
	if e.Stats().RequestHits != 1 {
		t.Errorf("expected exactly one hit, got %d", e.Stats().RequestHits)
	}
}

func TestResultIsolation(t *testing.T) {
	e := testEngine(simnet.NewMeter())
	q := countyQuery()
	r1, _ := e.Query(q)
	// Mutate the returned result; the cache must be unaffected.
	for k := range r1.Cells {
		delete(r1.Cells, k)
	}
	r2, _ := e.Query(q)
	if r2.Len() == 0 {
		t.Error("cache was mutated through a returned result")
	}
}

func TestConfigDefaults(t *testing.T) {
	e := New(Config{})
	if e.cfg.Shards != DefaultConfig().Shards {
		t.Error("shards not defaulted")
	}
	if e.cfg.Sleeper == nil {
		t.Error("sleeper not defaulted")
	}
}

func BenchmarkQueryCold(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Shards = 60
	cfg.PointsPerBlock = 64
	cfg.Model = simnet.Model{}
	e := New(cfg)
	q := countyQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		qq := q.Pan(geohash.Direction(i%8), float64(i%13)/100+0.01)
		if _, err := e.Query(qq); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEquivalenceProperty pins ES and Galileo to identical aggregates over
// randomized queries: the Fig. 8 contrasts must measure serving paths, never
// data differences.
func TestEquivalenceProperty(t *testing.T) {
	gen := &namgen.Generator{Seed: 42, PointsPerBlock: 32}
	ring, _ := dht.NewRing(1, 2)
	store := galileo.NewStore(ring, 0, gen, simnet.Model{}, simnet.NewMeter())
	cfg := DefaultConfig()
	cfg.Shards = 10
	cfg.PointsPerBlock = 32
	cfg.Sleeper = simnet.NewMeter()
	cfg.Model = simnet.Model{}
	es := New(cfg)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		lat := -50 + rng.Float64()*100
		lon := -170 + rng.Float64()*340
		q := query.Query{
			Box: geohash.Box{
				MinLat: lat, MaxLat: lat + 0.5 + rng.Float64()*2,
				MinLon: lon, MaxLon: lon + 0.5 + rng.Float64()*2,
			},
			Time:        temporal.DayRange(2015, 2, 1+rng.Intn(5)),
			SpatialRes:  3 + rng.Intn(2),
			TemporalRes: temporal.Day,
		}
		want, err := store.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := es.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() ||
			got.TotalCount("temperature") != want.TotalCount("temperature") {
			t.Fatalf("trial %d (%v): es=%d/%d galileo=%d/%d", trial, q,
				got.Len(), got.TotalCount("temperature"),
				want.Len(), want.TotalCount("temperature"))
		}
	}
}
