package stash

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/query"
)

// stressKeys builds a working set large enough to span every stripe and to
// push a small-capacity graph through repeated evictions.
func stressKeys(n int) []cell.Key {
	keys := make([]cell.Key, 0, n)
	for i := 0; len(keys) < n; i++ {
		gh := string([]byte{
			geohash.Base32[i%32],
			geohash.Base32[(i/32)%32],
			geohash.Base32[(i/1024)%32],
		})
		keys = append(keys, k(gh))
	}
	return keys
}

// TestGraphStressParallel hammers one Graph from many goroutines with the
// full mutating API — Get, Put, PutEmpty, Delete, and the evictions the small
// capacity forces — so the race detector sees every lock-striping interleaving
// (run under -race in CI with -cpu=1,4). Afterwards the per-stripe sizes,
// level counts, and stats must reconcile with the global size.
func TestGraphStressParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 400 // small: every few Puts trigger an eviction pass
	cfg.Stripes = 8
	g := NewGraph(cfg)

	keys := stressKeys(2048)
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	iters := 300
	if testing.Short() {
		iters = 60
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				base := rng.Intn(len(keys) - 32)
				batch := keys[base : base+1+rng.Intn(31)]
				switch rng.Intn(5) {
				case 0: // read path: touch + disperse
					g.GetBatch(batch)
				case 1: // population path: insert + evict
					res := query.NewResult()
					for j, key := range batch {
						res.Add(key, summaryWith(float64(j)))
					}
					g.Put(res)
				case 2: // negative caching
					g.PutEmpty(batch)
				case 3: // purge path
					for _, key := range batch {
						g.Delete(key)
					}
				case 4: // metadata reads race the mutators
					g.Peek(batch[0])
					g.Freshness(batch[0])
					g.Len()
					g.Stats()
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()

	// Global size must equal the sum of per-stripe sizes and of per-level
	// counts: the atomics and the striped maps may not drift apart.
	total := 0
	for i := 0; i < g.Stripes(); i++ {
		total += g.StripeLen(i)
	}
	if total != g.Len() {
		t.Errorf("stripe sizes sum to %d, Len() = %d", total, g.Len())
	}
	byLevel := 0
	for lvl := 0; lvl < cell.NumLevels; lvl++ {
		byLevel += g.LevelLen(lvl)
	}
	if byLevel != g.Len() {
		t.Errorf("level sizes sum to %d, Len() = %d", byLevel, g.Len())
	}
	if g.Len() > cfg.Capacity {
		t.Errorf("Len() = %d exceeds capacity %d after stress", g.Len(), cfg.Capacity)
	}
	st := g.Stats()
	if st.Hits < 0 || st.Misses < 0 || st.Inserts < 0 || st.Evictions < 0 {
		t.Errorf("negative stats after stress: %+v", st)
	}
	if st.Inserts == 0 || st.Evictions == 0 {
		t.Errorf("stress never exercised insert/evict: %+v", st)
	}
}

// TestStripeDistribution checks the key hash actually spreads a realistic
// footprint across stripes: with 16 stripes and 1024 keys no stripe should be
// empty and none should hold the majority.
func TestStripeDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stripes = 16
	g := NewGraph(cfg)
	keys := stressKeys(1024)
	res := query.NewResult()
	for i, key := range keys {
		res.Add(key, summaryWith(float64(i)))
	}
	g.Put(res)

	max := 0
	for i := 0; i < g.Stripes(); i++ {
		n := g.StripeLen(i)
		if n == 0 {
			t.Errorf("stripe %d empty with %d keys resident", i, len(keys))
		}
		if n > max {
			max = n
		}
	}
	if max > len(keys)/2 {
		t.Errorf("one stripe holds %d of %d keys: hash is clumping", max, len(keys))
	}
}

// TestStripesRoundedToPowerOfTwo verifies the striping factor normalization:
// arbitrary requests round up to a power of two, capped at maxStripes, and 1
// stays the single-lock baseline.
func TestStripesRoundedToPowerOfTwo(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {100, 128}, {1 << 20, maxStripes},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Stripes = tc.in
		if got := NewGraph(cfg).Stripes(); got != tc.want {
			t.Errorf("Stripes %d normalized to %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestSingleStripeSemantics re-runs the basic cache contract on the
// single-lock (stripes=1) configuration, so the baseline stays correct while
// the default is striped.
func TestSingleStripeSemantics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 1000
	cfg.Stripes = 1
	g := NewGraph(cfg)
	if g.Stripes() != 1 {
		t.Fatalf("Stripes() = %d, want 1", g.Stripes())
	}
	keys := []cell.Key{k("9q8"), k("9q9"), k("9qb")}
	if _, missing := g.GetBatch(keys); len(missing) != 3 {
		t.Fatalf("cold get on single stripe: missing=%d", len(missing))
	}
	g.Put(resultWith(keys...))
	found, missing := g.GetBatch(keys)
	if found.Len() != 3 || len(missing) != 0 {
		t.Fatalf("warm get on single stripe: found=%d missing=%d", found.Len(), len(missing))
	}
	g.Delete(keys[0])
	if _, missing = g.GetBatch(keys); len(missing) != 1 {
		t.Fatalf("after delete: missing=%d, want 1", len(missing))
	}
}

// TestGetBatchAliasesGet verifies the pipeline entry point and the classic
// entry point are the same operation.
func TestGetBatchAliasesGet(t *testing.T) {
	g := newTestGraph()
	keys := []cell.Key{k("9q8"), k("9q9")}
	g.Put(resultWith(keys...))
	r1, m1 := g.GetBatch(keys)
	r2, m2 := g.GetBatch(keys)
	if r1.Len() != r2.Len() || len(m1) != len(m2) {
		t.Errorf("Get and GetBatch disagree: (%d,%d) vs (%d,%d)",
			r1.Len(), len(m1), r2.Len(), len(m2))
	}
}

// TestDeriveBatchMatchesSingle checks the batched derivation resolves exactly
// the keys the single-key path resolves, and returns unresolved keys in
// request order.
func TestDeriveBatchMatchesSingle(t *testing.T) {
	g := newTestGraph()
	parent := k("9q8")
	children, ok := parent.SpatialChildren()
	if !ok {
		t.Fatal("no spatial children for 9q8")
	}
	g.Put(resultWith(children...))

	orphan := k("9w1") // no cover cached
	res, unresolved := g.DeriveBatch([]cell.Key{orphan, parent})
	if _, ok := res.Cells[parent]; !ok {
		t.Fatal("batched derivation missed the covered parent")
	}
	if len(unresolved) != 1 || unresolved[0] != orphan {
		t.Fatalf("unresolved = %v, want [%v]", unresolved, orphan)
	}
	// The derived parent is now resident.
	if _, ok := g.Peek(parent); !ok {
		t.Error("derived cell not resident after DeriveBatch")
	}
}
