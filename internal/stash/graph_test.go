package stash

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/simnet"
	"stash/internal/temporal"
)

var day = temporal.MustParse("2015-02-02", temporal.Day)

func k(gh string) cell.Key { return cell.Key{Geohash: geohash.MustPack(gh), Time: day} }

func summaryWith(v float64) cell.Summary {
	s := cell.Summary{}
	s.Observe(cell.Temperature, v)
	return s
}

func resultWith(keys ...cell.Key) query.Result {
	r := query.NewResult()
	for i, key := range keys {
		r.Add(key, summaryWith(float64(i)))
	}
	return r
}

func newTestGraph() *Graph {
	cfg := DefaultConfig()
	cfg.Capacity = 1000
	return NewGraph(cfg)
}

func TestGetMissThenHit(t *testing.T) {
	g := newTestGraph()
	keys := []cell.Key{k("9q8"), k("9q9")}

	found, missing := g.GetBatch(keys)
	if found.Len() != 0 || len(missing) != 2 {
		t.Fatalf("cold get: found=%d missing=%d", found.Len(), len(missing))
	}

	g.Put(resultWith(keys...))
	found, missing = g.GetBatch(keys)
	if found.Len() != 2 || len(missing) != 0 {
		t.Fatalf("warm get: found=%d missing=%d", found.Len(), len(missing))
	}
	st := g.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Inserts != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGetPartial(t *testing.T) {
	g := newTestGraph()
	g.Put(resultWith(k("9q8")))
	found, missing := g.GetBatch([]cell.Key{k("9q8"), k("9q9"), k("9qb")})
	if found.Len() != 1 {
		t.Errorf("found = %d, want 1", found.Len())
	}
	if len(missing) != 2 {
		t.Errorf("missing = %v, want 2 keys", missing)
	}
}

func TestGetEmpty(t *testing.T) {
	g := newTestGraph()
	found, missing := g.GetBatch(nil)
	if found.Len() != 0 || missing != nil {
		t.Error("empty get should be a no-op")
	}
}

func TestPutReplacesSummary(t *testing.T) {
	g := newTestGraph()
	key := k("9q8")
	g.Put(resultWith(key))

	r := query.NewResult()
	r.Add(key, summaryWith(99))
	g.Put(r)

	found, _ := g.GetBatch([]cell.Key{key})
	if got := found.Cells[key].Stats[cell.Temperature].Max; got != 99 {
		t.Errorf("summary not replaced: max = %v", got)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d after re-put", g.Len())
	}
}

func TestPutEmptyCachesNegativeResult(t *testing.T) {
	g := newTestGraph()
	keys := []cell.Key{k("9q8"), k("9q9")}
	g.PutEmpty(keys)
	found, missing := g.GetBatch(keys)
	if len(missing) != 0 {
		t.Fatalf("negative-cached keys still missing: %v", missing)
	}
	for _, key := range keys {
		if !found.Cells[key].Empty() {
			t.Errorf("negative cell %v should be empty", key)
		}
	}
	// PutEmpty must not clobber a real summary.
	g.Put(resultWith(k("9qb")))
	g.PutEmpty([]cell.Key{k("9qb")})
	s, ok := g.Peek(k("9qb"))
	if !ok || s.Empty() {
		t.Error("PutEmpty overwrote a populated cell")
	}
}

func TestPeekDoesNotTouch(t *testing.T) {
	g := newTestGraph()
	key := k("9q8")
	g.Put(resultWith(key))
	f0, _ := g.Freshness(key)
	if _, ok := g.Peek(key); !ok {
		t.Fatal("peek missed")
	}
	f1, _ := g.Freshness(key)
	if f1 > f0 {
		t.Error("peek increased freshness")
	}
	if _, ok := g.Peek(k("zzz")); ok {
		t.Error("peek found absent key")
	}
}

func TestLevelSeparation(t *testing.T) {
	g := newTestGraph()
	coarse := cell.Key{Geohash: geohash.MustPack("9q"), Time: day}
	fine := cell.Key{Geohash: geohash.MustPack("9q8"), Time: day}
	g.Put(resultWith(coarse, fine))
	if g.LevelLen(coarse.Level()) != 1 || g.LevelLen(fine.Level()) != 1 {
		t.Errorf("level lens: %d %d", g.LevelLen(coarse.Level()), g.LevelLen(fine.Level()))
	}
	if g.LevelLen(-1) != 0 || g.LevelLen(cell.NumLevels) != 0 {
		t.Error("out-of-range level should be empty")
	}
	ks := g.Keys(fine.Level())
	if len(ks) != 1 || ks[0] != fine {
		t.Errorf("Keys(level) = %v", ks)
	}
}

func TestFreshnessGrowsWithAccess(t *testing.T) {
	g := newTestGraph()
	a, b := k("9q8"), k("9q9")
	g.Put(resultWith(a, b))
	for i := 0; i < 5; i++ {
		g.GetBatch([]cell.Key{a})
	}
	fa, _ := g.Freshness(a)
	fb, _ := g.Freshness(b)
	if fa <= fb {
		t.Errorf("hot cell freshness %v should exceed cold cell %v", fa, fb)
	}
	if _, ok := g.Freshness(k("zzz")); ok {
		t.Error("freshness of absent key reported")
	}
}

// TestDispersionProtectsNeighborhood is the core §V-C property: accessing a
// region boosts its resident neighbors, so eviction spares the neighborhood.
func TestDispersionProtectsNeighborhood(t *testing.T) {
	g := newTestGraph()
	center := k("9q8y7")
	neighbors := center.SpatialNeighbors()
	far := k("u4pru")
	g.Put(resultWith(append(neighbors, center, far)...))

	f0, _ := g.Freshness(neighbors[0])
	fFar0, _ := g.Freshness(far)
	g.GetBatch([]cell.Key{center})
	f1, _ := g.Freshness(neighbors[0])
	fFar1, _ := g.Freshness(far)

	if f1 <= f0 {
		t.Errorf("neighbor freshness did not increase: %v -> %v", f0, f1)
	}
	if fFar1 > fFar0 {
		t.Errorf("distant cell freshness increased: %v -> %v", fFar0, fFar1)
	}
}

func TestDispersionDisabledAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 1000
	cfg.Disperse = false
	g := NewGraph(cfg)
	center := k("9q8y7")
	neighbors := center.SpatialNeighbors()
	g.Put(resultWith(append(neighbors, center)...))
	f0, _ := g.Freshness(neighbors[0])
	g.GetBatch([]cell.Key{center})
	f1, _ := g.Freshness(neighbors[0])
	if f1 > f0 {
		t.Error("dispersion happened with Disperse=false")
	}
}

func TestDispersionBoostsParents(t *testing.T) {
	g := newTestGraph()
	child := k("9q8y7")
	parent := k("9q8y")
	g.Put(resultWith(child, parent))
	p0, _ := g.Freshness(parent)
	g.GetBatch([]cell.Key{child})
	p1, _ := g.Freshness(parent)
	if p1 <= p0 {
		t.Errorf("parent freshness did not increase: %v -> %v", p0, p1)
	}
}

func TestEvictionKeepsFreshCells(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 100
	cfg.SafeFraction = 0.5
	cfg.Disperse = false
	cfg.HalfLife = 0 // no decay; freshness = pure access count
	g := NewGraph(cfg)

	// Fill to capacity with cold cells, then heat a handful.
	var cold []cell.Key
	for i := 0; i < 100; i++ {
		cold = append(cold, k(fmt.Sprintf("%s%s%s",
			string("0123456789bcdefghjkmnpqrstuvwxyz"[i%32]),
			string("0123456789bcdefghjkmnpqrstuvwxyz"[(i/32)%32]), "0")))
	}
	g.Put(resultWith(cold...))
	hot := cold[:5]
	for i := 0; i < 10; i++ {
		g.GetBatch(hot)
	}

	// Overflow the capacity to trigger eviction.
	overflow := resultWith(k("zzz"), k("zzy"))
	g.Put(overflow)

	if g.Len() > 52 {
		t.Errorf("eviction did not reach safe limit: len=%d", g.Len())
	}
	for _, h := range hot {
		if _, ok := g.Peek(h); !ok {
			t.Errorf("hot cell %v evicted while cold cells remained", h)
		}
	}
	if g.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

// TestEvictionKeepsRegionsUnderDispersion encodes §V-C2's goal: with
// dispersion on, a heavily accessed region's *neighborhood* survives
// eviction even though the neighborhood itself was never queried.
func TestEvictionKeepsRegionsUnderDispersion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 50
	cfg.SafeFraction = 0.6
	cfg.HalfLife = 0
	g := NewGraph(cfg)

	center := k("9q8y7")
	ring := center.SpatialNeighbors()
	region := append([]cell.Key{center}, ring...)

	var filler []cell.Key
	for i := 0; i < 41; i++ {
		filler = append(filler, k(fmt.Sprintf("u4%s%s",
			string("0123456789bcdefghjkmnpqrstuvwxyz"[i%32]),
			string("0123456789bcdefghjkmnpqrstuvwxyz"[(i/32)%32]))))
	}
	g.Put(resultWith(append(region, filler...)...))

	// Hammer only the center; dispersion should shield the ring.
	for i := 0; i < 20; i++ {
		g.GetBatch([]cell.Key{center})
	}
	g.Put(resultWith(k("zzz"))) // trigger eviction

	kept := 0
	for _, r := range ring {
		if _, ok := g.Peek(r); ok {
			kept++
		}
	}
	if kept < len(ring) {
		t.Errorf("only %d/%d ring cells survived eviction; dispersion should protect the region", kept, len(ring))
	}
}

func TestDeleteRemoves(t *testing.T) {
	g := newTestGraph()
	key := k("9q8")
	g.Put(resultWith(key))
	g.Delete(key)
	if _, ok := g.Peek(key); ok {
		t.Error("deleted key still present")
	}
	if g.Len() != 0 {
		t.Errorf("Len = %d", g.Len())
	}
	g.Delete(key) // deleting absent key must not panic or underflow
	if g.Len() != 0 {
		t.Error("double delete corrupted size")
	}
}

func TestSnapshot(t *testing.T) {
	g := newTestGraph()
	a, b := k("9q8"), k("9q9")
	g.Put(resultWith(a, b))
	snap := g.Snapshot([]cell.Key{a, k("zzzzz0")})
	if snap.Len() != 1 {
		t.Errorf("snapshot len = %d", snap.Len())
	}
	if _, ok := snap.Cells[a]; !ok {
		t.Error("snapshot missing requested present key")
	}
}

func TestStaleCellRefetched(t *testing.T) {
	g := newTestGraph()
	key := k("9q8")
	g.Put(resultWith(key))
	g.PLM().MarkStale(BlockRef{Prefix: "9q", Day: day})

	found, missing := g.GetBatch([]cell.Key{key})
	if found.Len() != 0 || len(missing) != 1 {
		t.Fatalf("stale cell served from cache: found=%d missing=%d", found.Len(), len(missing))
	}
	// Re-put simulates the refetch; once the block invalidation is cleared
	// the cell serves again.
	g.PLM().ClearStale(BlockRef{Prefix: "9q", Day: day})
	g.Put(resultWith(key))
	found, missing = g.GetBatch([]cell.Key{key})
	if found.Len() != 1 || len(missing) != 0 {
		t.Error("refetched cell not served")
	}
}

func TestChargeAccountsMemoryCost(t *testing.T) {
	meter := simnet.NewMeter()
	cfg := DefaultConfig()
	cfg.Model = simnet.Default()
	cfg.Sleeper = meter
	g := NewGraph(cfg)
	g.Put(resultWith(k("9q8")))
	if meter.Elapsed() == 0 {
		t.Error("no memory cost charged on put")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	g := NewGraph(Config{})
	if g.cfg.Capacity != DefaultConfig().Capacity {
		t.Error("zero capacity not defaulted")
	}
	if g.cfg.SafeFraction != DefaultConfig().SafeFraction {
		t.Error("zero safe fraction not defaulted")
	}
	if g.cfg.FreshInc != DefaultConfig().FreshInc {
		t.Error("zero fresh inc not defaulted")
	}
	g2 := NewGraph(Config{SafeFraction: 1.5})
	if g2.cfg.SafeFraction > 1 {
		t.Error("over-1 safe fraction accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	g := newTestGraph()
	keys := make([]cell.Key, 64)
	for i := range keys {
		keys[i] = k(fmt.Sprintf("9q%s", string("0123456789bcdefghjkmnpqrstuvwxyz"[i%32])))
	}
	g.Put(resultWith(keys...))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					g.GetBatch(keys[w*4 : w*4+4])
				case 1:
					g.Put(resultWith(keys[(w*7+i)%64]))
				case 2:
					g.Peek(keys[(w*3+i)%64])
				}
			}
		}(w)
	}
	wg.Wait()
	if g.Len() == 0 {
		t.Error("graph emptied under concurrent access")
	}
}

func TestTickAdvances(t *testing.T) {
	g := newTestGraph()
	t0 := g.Tick()
	g.GetBatch([]cell.Key{k("9q8")})
	g.Put(resultWith(k("9q8")))
	if g.Tick() != t0+2 {
		t.Errorf("tick advanced by %d, want 2", g.Tick()-t0)
	}
}

func BenchmarkGetWarm(b *testing.B) {
	g := newTestGraph()
	keys := make([]cell.Key, 100)
	for i := range keys {
		keys[i] = k(fmt.Sprintf("9q%s%s",
			string("0123456789bcdefghjkmnpqrstuvwxyz"[i%32]),
			string("0123456789bcdefghjkmnpqrstuvwxyz"[(i/32)%32])))
	}
	g.Put(resultWith(keys...))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GetBatch(keys)
	}
}

func BenchmarkPut(b *testing.B) {
	cfg := DefaultConfig()
	g := NewGraph(cfg)
	res := resultWith(k("9q8"), k("9q9"), k("9qb"), k("9qc"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Put(res)
	}
}

func TestDeriveFromSpatialChildren(t *testing.T) {
	g := newTestGraph()
	parent := k("9q8")
	children, _ := parent.SpatialChildren()
	res := query.NewResult()
	for i, c := range children {
		res.Add(c, summaryWith(float64(i)))
	}
	g.Put(res)

	sum, ok := g.DeriveFromChildren(parent)
	if !ok {
		t.Fatal("derivation failed with full child cover")
	}
	if got := sum.Count("temperature"); got != 32 {
		t.Errorf("derived count = %d, want 32", got)
	}
	if st := sum.Stats[cell.Temperature]; st.Min != 0 || st.Max != 31 {
		t.Errorf("derived stat = %+v", st)
	}
	// Derived cell must now be resident.
	if _, present := g.Peek(parent); !present {
		t.Error("derived cell not inserted")
	}
}

func TestDeriveFailsWithIncompleteCover(t *testing.T) {
	g := newTestGraph()
	parent := k("9q8")
	children, _ := parent.SpatialChildren()
	res := query.NewResult()
	for _, c := range children[:31] { // one child missing
		res.Add(c, summaryWith(1))
	}
	g.Put(res)
	if _, ok := g.DeriveFromChildren(parent); ok {
		t.Error("derivation succeeded with incomplete child cover")
	}
}

func TestDeriveFromTemporalChildren(t *testing.T) {
	g := newTestGraph()
	parent := cell.Key{Geohash: geohash.MustPack("9q8"), Time: temporal.MustParse("2015-02-02", temporal.Day)}
	children, _ := parent.TemporalChildren()
	res := query.NewResult()
	for _, c := range children {
		res.Add(c, summaryWith(3))
	}
	g.Put(res)
	sum, ok := g.DeriveFromChildren(parent)
	if !ok {
		t.Fatal("temporal derivation failed")
	}
	if got := sum.Count("temperature"); got != 24 {
		t.Errorf("derived count = %d, want 24 (hours)", got)
	}
}

func TestDeriveFailsWithStaleChild(t *testing.T) {
	g := newTestGraph()
	parent := k("9q8")
	children, _ := parent.SpatialChildren()
	res := query.NewResult()
	for _, c := range children {
		res.Add(c, summaryWith(1))
	}
	g.Put(res)
	g.PLM().MarkStale(BlockRef{Prefix: children[0].Geohash.Prefix(2).String(), Day: day})
	if _, ok := g.DeriveFromChildren(parent); ok {
		t.Error("derivation used a stale child")
	}
}

// TestGraphInvariants property-checks the structural invariants of the graph
// under random workloads: capacity is enforced, Len matches the per-level
// sum, and Get partitions its request into found + missing exactly.
func TestGraphInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := DefaultConfig()
		cfg.Capacity = 64
		cfg.SafeFraction = 0.75
		g := NewGraph(cfg)
		base32 := "0123456789bcdefghjkmnpqrstuvwxyz"
		keyFor := func(v uint16) cell.Key {
			gh := string(base32[v%32]) + string(base32[(v/32)%32]) + string(base32[(v/1024)%8])
			return k(gh)
		}
		for i, op := range ops {
			key := keyFor(op)
			switch i % 3 {
			case 0:
				g.Put(resultWith(key))
			case 1:
				found, missing := g.GetBatch([]cell.Key{key, keyFor(op + 1)})
				if found.Len()+len(missing) != 2 {
					// found omits negative-cached empties; account for them.
					extra := 0
					for _, kk := range []cell.Key{key, keyFor(op + 1)} {
						if s, ok := g.Peek(kk); ok && s.Empty() {
							extra++
						}
					}
					if found.Len()+len(missing)+extra != 2 {
						return false
					}
				}
			case 2:
				g.PutEmpty([]cell.Key{key})
			}
			// Capacity enforced after every mutation batch.
			if g.Len() > cfg.Capacity {
				return false
			}
		}
		// Len equals the sum over levels.
		sum := 0
		for lvl := 0; lvl < cell.NumLevels; lvl++ {
			sum += g.LevelLen(lvl)
		}
		return sum == g.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEvictionNeverBelowSafeLimit checks the eviction target: after a breach
// the graph holds at most capacity*safeFraction cells.
func TestEvictionNeverBelowSafeLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 50
	cfg.SafeFraction = 0.6
	g := NewGraph(cfg)
	res := query.NewResult()
	for i := 0; i < 200; i++ {
		gh := fmt.Sprintf("%s%s%s",
			string("0123456789bcdefghjkmnpqrstuvwxyz"[i%32]),
			string("0123456789bcdefghjkmnpqrstuvwxyz"[(i/32)%32]), "7")
		res.Add(k(gh), summaryWith(float64(i)))
	}
	g.Put(res)
	if g.Len() > 30 {
		t.Errorf("after breach Len = %d, want <= capacity*safe = 30", g.Len())
	}
	if g.Len() == 0 {
		t.Error("eviction emptied the graph")
	}
}

// TestDeriveAllEmptyChildrenOmittedFromResult is the regression test for a
// contract violation the differential harness (internal/oracle/difftest)
// caught: a parent derived from 32 negative-cached (empty) children produced
// an empty summary that DeriveBatch added to the served result, while the
// disk path — and GetBatch's negative-hit handling — omit dataless bins.
// The derived empty must be cached (it is a valid parent-level negative
// entry) but must not appear in the result.
func TestDeriveAllEmptyChildrenOmittedFromResult(t *testing.T) {
	g := newTestGraph()
	parent := k("9q8")
	children, _ := parent.SpatialChildren()
	g.PutEmpty(children)

	res, unresolved := g.DeriveBatch([]cell.Key{parent})
	if len(unresolved) != 0 {
		t.Fatalf("parent unresolved despite full (empty) child cover: %v", unresolved)
	}
	if _, inResult := res.Cells[parent]; inResult {
		t.Error("derived-empty parent appeared in the served result")
	}
	// But it must be resident as a parent-level negative-cache entry ...
	if sum, present := g.Peek(parent); !present {
		t.Error("derived-empty parent not cached")
	} else if !sum.Empty() {
		t.Errorf("cached parent should be empty, got %+v", sum.Stats)
	}
	// ... and the single-key path mirrors the disk scan: success, empty.
	sum, ok := g.DeriveFromChildren(parent)
	if !ok || !sum.Empty() {
		t.Errorf("DeriveFromChildren = (%+v, %v), want empty summary, true", sum.Stats, ok)
	}
}
