package stash

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/temporal"
)

// referenceBoostSet is the boost-set computation Graph.disperse had before it
// went allocation-free, kept as the specification: two per-request maps, the
// candidates of every key materialized as slices, no level skipping. (The key
// algebra underneath it is itself held to the text implementations by the
// equivalence tests in internal/geohash and internal/temporal.)
func referenceBoostSet(keys []cell.Key) []cell.Key {
	requested := make(map[cell.Key]bool, len(keys))
	for _, k := range keys {
		requested[k] = true
	}
	boosted := map[cell.Key]bool{}
	var boost []cell.Key
	add := func(k cell.Key) {
		if requested[k] || boosted[k] {
			return
		}
		boosted[k] = true
		boost = append(boost, k)
	}
	for _, k := range keys {
		for _, n := range k.SpatialNeighbors() {
			add(n)
		}
		if ns, err := k.TemporalNeighbors(); err == nil {
			for _, n := range ns {
				add(n)
			}
		}
		for _, p := range k.Parents() {
			add(p)
		}
	}
	return boost
}

// referenceGet serves keys from g — a graph with dispersion switched off —
// and then applies the reference boost set by hand, at the tick the request
// ran at: what GetBatch with dispersion on must amount to.
func referenceGet(g *Graph, keys []cell.Key) {
	g.GetBatch(keys)
	tick := g.tick.Load()
	inc := g.cfg.FreshInc * g.cfg.DisperseFraction
	for _, k := range referenceBoostSet(keys) {
		s := g.stripeFor(k)
		s.mu.Lock()
		if r := s.find(k); r != nil {
			r.Disperse(tick, inc, g.decay)
		}
		s.mu.Unlock()
	}
}

// freshnessState snapshots the replacement state of every resident cell.
func freshnessState(g *Graph) map[cell.Key][3]uint64 {
	out := map[cell.Key][3]uint64{}
	for _, s := range g.stripes {
		s.mu.Lock()
		for row := 0; row < s.n; row++ {
			c := s.at(int32(row))
			out[c.Key] = [3]uint64{math.Float64bits(c.Freshness), uint64(c.LastTouch), uint64(c.Accesses)}
		}
		s.mu.Unlock()
	}
	return out
}

func footprint(t *testing.T, q query.Query) []cell.Key {
	t.Helper()
	keys, err := q.Footprint()
	if err != nil {
		t.Fatalf("footprint of %v: %v", q, err)
	}
	return keys
}

// disperseFootprints are the request shapes dispersion must get right:
// rectangles, a ragged polygon, a request repeating keys, regions touching a
// pole and the ±180° seam, a two-day window, and a request mixing levels.
func disperseFootprints(t *testing.T, rng *rand.Rand) [][]cell.Key {
	day := temporal.DayRange(2015, time.February, 2)
	twoDays := temporal.Range{Start: day.Start, End: day.End.Add(24 * time.Hour)}
	rect := func(b geohash.Box, tr temporal.Range, sres int, tres temporal.Resolution) []cell.Key {
		return footprint(t, query.Query{Box: b, Time: tr, SpatialRes: sres, TemporalRes: tres})
	}
	lat, lon := 20+20*rng.Float64(), -120+40*rng.Float64()
	home := rect(geohash.Box{MinLat: lat, MaxLat: lat + 3, MinLon: lon, MaxLon: lon + 5}, day, 4, temporal.Day)
	poly, err := query.NewPolygonQuery(geohash.Polygon{
		{Lat: lat, Lon: lon}, {Lat: lat + 4, Lon: lon + 1}, {Lat: lat + 1.5, Lon: lon + 2.5},
		{Lat: lat + 3.5, Lon: lon + 6}, {Lat: lat - 1, Lon: lon + 4},
	}, day, 4, temporal.Day)
	if err != nil {
		t.Fatal(err)
	}
	dup := append(append([]cell.Key(nil), home...), home[:len(home)/3]...)
	rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
	mixed := append(rect(geohash.Box{MinLat: lat, MaxLat: lat + 2, MinLon: lon, MaxLon: lon + 2}, day, 3, temporal.Day),
		rect(geohash.Box{MinLat: lat, MaxLat: lat + 1, MinLon: lon, MaxLon: lon + 1}, day, 4, temporal.Hour)...)
	mixed = append(mixed, home[:10]...)
	return [][]cell.Key{
		home,
		footprint(t, poly),
		dup,
		rect(geohash.Box{MinLat: 88, MaxLat: 90, MinLon: lon, MaxLon: lon + 30}, day, 3, temporal.Day),  // north pole row
		rect(geohash.Box{MinLat: -90, MaxLat: -89, MinLon: -180, MaxLon: -170}, day, 3, temporal.Day),   // south pole, west seam
		rect(geohash.Box{MinLat: lat, MaxLat: lat + 2, MinLon: 176, MaxLon: 180}, day, 4, temporal.Day), // east seam
		rect(geohash.Box{MinLat: lat, MaxLat: lat + 2, MinLon: lon, MaxLon: lon + 2}, twoDays, 4, temporal.Day),
		rect(geohash.Box{MinLat: -60, MaxLat: 60, MinLon: -100, MaxLon: 100}, day, 1, temporal.Year), // top of the hierarchy
		mixed,
	}
}

// populate makes a seeded random part of each footprint's neighborhood
// resident in both graphs: the requested cells, their lateral neighbors,
// their parents, and some cells elsewhere.
func populate(rng *rand.Rand, footprints [][]cell.Key, graphs ...*Graph) {
	res := query.NewResult()
	var empties []cell.Key
	put := func(k cell.Key) {
		switch rng.Intn(5) {
		case 0: // absent
		case 1:
			empties = append(empties, k)
		default:
			s := cell.Summary{}
			s.Observe(cell.Snow, rng.Float64())
			res.Cells[k] = s
		}
	}
	for _, keys := range footprints {
		for _, k := range keys {
			put(k)
			if ns, err := k.LateralNeighbors(); err == nil {
				for _, n := range ns {
					put(n)
				}
			}
			for _, p := range k.Parents() {
				put(p)
			}
		}
	}
	for _, g := range graphs {
		g.Put(res)
		g.PutEmpty(empties)
	}
}

// TestDisperseMatchesReference drives a graph with dispersion on and a twin
// with dispersion off plus the reference boost set applied by hand through
// the same seeded requests, and requires the freshness, last-touch tick and
// access count of every resident cell to be bit-equal after each one.
func TestDisperseMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Stripes = []int{1, 4, 16}[seed%3]
		cfg.HalfLife = 50 // decay visibly between requests
		fast := NewGraph(cfg)
		cfg.Disperse = false
		ref := NewGraph(cfg)

		footprints := disperseFootprints(t, rng)
		populate(rng, footprints, fast, ref)
		if fast.Len() == 0 || fast.Len() != ref.Len() {
			t.Fatalf("seed %d: twins hold %d and %d cells", seed, fast.Len(), ref.Len())
		}
		boosts := 0
		for round := 0; round < 3; round++ {
			for i, keys := range footprints {
				before := freshnessState(ref)
				fast.GetBatch(keys)
				referenceGet(ref, keys)
				got, want := freshnessState(fast), freshnessState(ref)
				if len(got) != len(want) {
					t.Fatalf("seed %d footprint %d: %d resident cells, reference has %d", seed, i, len(got), len(want))
				}
				for k, w := range want {
					if got[k] != w {
						t.Fatalf("seed %d round %d footprint %d: cell %v has (freshness bits, tick, accesses) %v, reference %v",
							seed, round, i, k, got[k], w)
					}
					if w[2] == before[k][2] && w != before[k] {
						boosts++ // changed without an access: a dispersion boost
					}
				}
			}
		}
		if boosts == 0 {
			t.Fatalf("seed %d: no request boosted anything; the test compares nothing", seed)
		}
	}
}

// TestDisperseNeighborKindsFailIndependently pins the fix for a latent drop:
// a key whose temporal label has no usable neighbors still gets its spatial
// neighbors boosted (the old code discarded both kinds on one error).
func TestDisperseNeighborKindsFailIndependently(t *testing.T) {
	g := NewGraph(DefaultConfig())
	center := cell.Key{Geohash: geohash.MustPack("9q8y"), Time: temporal.Label{Res: 9}}
	neighbor := cell.Key{Geohash: geohash.MustPack("9q8v"), Time: day}
	g.Put(resultWith(neighbor))
	f0, _ := g.Freshness(neighbor)
	// A malformed label is skipped whole, without panicking or disturbing
	// the valid keys in the same request.
	g.GetBatch([]cell.Key{center, k("9q8y")})
	if f1, _ := g.Freshness(neighbor); f1 <= f0 {
		t.Errorf("neighbor freshness %v -> %v: the valid key's boost was lost", f0, f1)
	}
}

// ladderKeys is the benchmark ladder's footprint: 24 x 24 keys at (4, Day),
// of which the default dataset fills 552.
func ladderKeys(t testing.TB) []cell.Key {
	keys, err := query.Query{
		Box:        geohash.Box{MinLat: 36, MaxLat: 40, MinLon: -108, MaxLon: -100},
		Time:       temporal.DayRange(2015, time.February, 2),
		SpatialRes: 4, TemporalRes: temporal.Day,
	}.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestGetBatchAllocsConstant is the allocation gate on the warm read path: a
// GetBatch allocates the reply map (and, on a miss, the missing-key list) and
// nothing else — a constant number of objects whatever the request size,
// hit or miss, with dispersion on.
func TestGetBatchAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const maxAllocs = 8
	keys := ladderKeys(t)
	resident := NewGraph(DefaultConfig())
	res := query.NewResult()
	for _, k := range keys {
		s := cell.Summary{}
		s.Observe(cell.Snow, 1)
		res.Cells[k] = s
	}
	resident.Put(res)
	// A second resident level, so parent candidates are live too.
	resident.Put(resultWith(keys[0].Parents()...))
	empty := NewGraph(DefaultConfig())

	measure := func(g *Graph, ks []cell.Key) float64 {
		g.GetBatch(ks) // warm the scratch pool for this size
		return testing.AllocsPerRun(50, func() { g.GetBatch(ks) })
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"hit", resident}, {"miss", empty}} {
		full, quarter := measure(c.g, keys), measure(c.g, keys[:len(keys)/4])
		t.Logf("%s: %.1f allocs for %d keys, %.1f for %d", c.name, full, len(keys), quarter, len(keys)/4)
		if full > maxAllocs {
			t.Errorf("%s: GetBatch of %d keys allocates %.1f objects, want <= %d", c.name, len(keys), full, maxAllocs)
		}
		if full != quarter {
			t.Errorf("%s: allocations grow with the request: %.1f for %d keys, %.1f for %d",
				c.name, full, len(keys), quarter, len(keys)/4)
		}
	}
	if hits := resident.Stats().Hits; hits == 0 {
		t.Error("the hit case never hit")
	}
}

// TestPutAllocsPerCell is the allocation gate on cache population: a record
// is a row of a slab chunk, its summary stored in place, so inserting a
// footprint into an empty graph allocates chunks and index tables — a small
// fraction of an object per cell — where it used to allocate a cell and two
// maps for each.
func TestPutAllocsPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const maxPerCell = 0.1
	keys := ladderKeys(t)
	res := query.NewResult()
	for _, k := range keys {
		res.Cells[k] = summaryWith(1)
	}
	NewGraph(DefaultConfig()).Put(res) // warm the scratch pool for this size
	fresh := testing.AllocsPerRun(20, func() { NewGraph(DefaultConfig()) })
	total := testing.AllocsPerRun(20, func() { NewGraph(DefaultConfig()).Put(res) })
	perCell := (total - fresh) / float64(len(keys))
	t.Logf("Put of %d cells into a fresh graph: %.0f allocations, %.3f per cell", len(keys), total-fresh, perCell)
	if perCell > maxPerCell {
		t.Errorf("Put allocates %.3f objects per cell, want <= %v", perCell, maxPerCell)
	}
	// Replacing resident cells allocates nothing at all.
	g := NewGraph(DefaultConfig())
	g.Put(res)
	if again := testing.AllocsPerRun(20, func() { g.Put(res) }); again != 0 {
		t.Errorf("re-Put of resident cells allocates %.1f objects, want 0", again)
	}
}

func BenchmarkGetBatchWarm(b *testing.B) {
	keys := ladderKeys(b)
	g := NewGraph(DefaultConfig())
	res := query.NewResult()
	for _, k := range keys {
		s := cell.Summary{}
		s.Observe(cell.Snow, 1)
		res.Cells[k] = s
	}
	g.Put(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GetBatch(keys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
}

func BenchmarkGetBatchMiss(b *testing.B) {
	keys := ladderKeys(b)
	g := NewGraph(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GetBatch(keys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
}
