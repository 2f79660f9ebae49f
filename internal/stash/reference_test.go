package stash

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/temporal"
)

// refStore is the store the graph had before its stripes became record slabs,
// kept as the specification: a Go map of separately allocated cells per level,
// a PLM with its own presence maps and a per-insert epoch, dispersion by
// materialized neighbor lists (referenceBoostSet), derivation by child-key
// slices and three maps. It is single-threaded and unstriped — striping never
// changed semantics — and differs from what it replaced in two deliberate
// ways only: eviction ranks equal scores by key (the old order among ties was
// map iteration order, which nothing can reproduce), and a key repeated within
// one GetBatch is served once rather than merged with itself.
type refStore struct {
	cfg    Config
	decay  cell.DecayFunc
	levels [cell.NumLevels]map[cell.Key]*cell.Cell
	size   int
	tick   int64
	stats  Stats

	epoch   int64
	present map[cell.Key]int64
	stale   map[BlockRef]int64
}

func newRefStore(cfg Config) *refStore {
	return &refStore{cfg: cfg, decay: cell.ExpDecay(cfg.HalfLife), present: map[cell.Key]int64{}, stale: map[BlockRef]int64{}}
}

func (r *refStore) lookup(k cell.Key) *cell.Cell { return r.levels[k.Level()][k] }

func (r *refStore) isStale(k cell.Key) bool {
	epoch, ok := r.present[k]
	if !ok {
		return false
	}
	for b, blockEpoch := range r.stale {
		if blockEpoch <= epoch {
			continue
		}
		prefix := geohash.MustPack(b.Prefix)
		if (k.Geohash.HasPrefix(prefix) || prefix.HasPrefix(k.Geohash)) && k.Time.Overlaps(b.Day) {
			return true
		}
	}
	return false
}

func (r *refStore) markStale(b BlockRef) {
	r.epoch++
	r.stale[b] = r.epoch
}

func (r *refStore) insert(k cell.Key, sum cell.Summary, tick int64) {
	lvl := k.Level()
	if r.levels[lvl] == nil {
		r.levels[lvl] = map[cell.Key]*cell.Cell{}
	}
	c, exists := r.levels[lvl][k]
	if !exists {
		c = &cell.Cell{Key: k}
		r.levels[lvl][k] = c
		r.size++
		r.stats.Inserts++
	}
	c.Summary = sum
	c.Touch(tick, r.cfg.FreshInc, r.decay)
	r.epoch++
	r.present[k] = r.epoch
}

func (r *refStore) remove(k cell.Key) {
	if _, ok := r.levels[k.Level()][k]; ok {
		delete(r.levels[k.Level()], k)
		delete(r.present, k)
		r.size--
	}
}

func (r *refStore) getBatch(keys []cell.Key) (query.Result, []cell.Key) {
	res := query.NewResult()
	if len(keys) == 0 {
		return res, nil
	}
	r.tick++
	var missing []cell.Key
	for _, k := range keys {
		c := r.lookup(k)
		if c == nil || r.isStale(k) {
			if c != nil {
				r.remove(k)
			}
			missing = append(missing, k)
			continue
		}
		c.Touch(r.tick, r.cfg.FreshInc, r.decay)
		if !c.Summary.Empty() {
			res.Cells[k] = c.Summary
		}
	}
	if r.cfg.Disperse {
		inc := r.cfg.FreshInc * r.cfg.DisperseFraction
		for _, k := range referenceBoostSet(keys) {
			if c := r.lookup(k); c != nil {
				c.Disperse(r.tick, inc, r.decay)
			}
		}
	}
	r.stats.Hits += int64(len(keys) - len(missing))
	r.stats.Misses += int64(len(missing))
	return res, missing
}

func (r *refStore) put(res query.Result) {
	r.tick++
	for k, s := range res.Cells {
		r.insert(k, s, r.tick)
	}
	r.maybeEvict()
}

func (r *refStore) putEmpty(keys []cell.Key) {
	r.tick++
	for _, k := range keys {
		if r.lookup(k) == nil {
			r.insert(k, cell.Summary{}, r.tick)
		}
	}
	r.maybeEvict()
}

// maybeEvict returns the victims, for the test to compare.
func (r *refStore) maybeEvict() []cell.Key {
	if r.size <= r.cfg.Capacity {
		return nil
	}
	need := r.size - int(float64(r.cfg.Capacity)*r.cfg.SafeFraction)
	type scored struct {
		key   cell.Key
		score float64
	}
	var all []scored
	for lvl := range r.levels {
		for k, c := range r.levels[lvl] {
			all = append(all, scored{k, c.FreshnessAt(r.tick, r.decay)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score < all[j].score
		}
		return all[i].key.Less(all[j].key)
	})
	var victims []cell.Key
	for _, v := range all[:need] {
		r.remove(v.key)
		victims = append(victims, v.key)
	}
	r.stats.Evictions += int64(need)
	return victims
}

func (r *refStore) extractPartitions(prefixLen int, moved map[geohash.Hash]bool) query.Result {
	res := query.NewResult()
	for lvl := range r.levels {
		for k, c := range r.levels[lvl] {
			if k.Geohash.Len() < prefixLen || !moved[k.Geohash.Prefix(prefixLen)] {
				continue
			}
			if !r.isStale(k) {
				res.Cells[k] = c.Summary
			}
			r.remove(k)
		}
	}
	return res
}

func (r *refStore) dropCoarsePartials(prefixLen int, changed map[geohash.Hash]bool) int {
	dropped := 0
	for lvl := range r.levels {
		for k := range r.levels[lvl] {
			if k.Geohash.Len() >= prefixLen {
				continue
			}
			for p := range changed {
				if p.HasPrefix(k.Geohash) {
					r.remove(k)
					dropped++
					break
				}
			}
		}
	}
	return dropped
}

// deriveBatch is DeriveBatch as it was: candidate child-key slices planned
// from level occupancy, the union of child keys looked up into one map, covers
// merged per parent into another, derived cells inserted together.
func (r *refStore) deriveBatch(keys []cell.Key) (query.Result, []cell.Key) {
	res := query.NewResult()
	if len(keys) == 0 {
		return res, nil
	}
	type candidate struct {
		parent   int
		children []cell.Key
	}
	var cands []candidate
	for i, k := range keys {
		if k.Geohash.Len() < cell.MaxSpatialPrecision {
			if len(r.levels[k.Level()+1]) >= geohash.BranchFactor {
				if children, ok := k.SpatialChildren(); ok {
					cands = append(cands, candidate{i, children})
				}
			}
		}
		if _, ok := k.Time.Res.Finer(); ok && len(r.levels[k.Level()+cell.MaxSpatialPrecision]) > 0 {
			if children, ok := k.TemporalChildren(); ok {
				cands = append(cands, candidate{i, children})
			}
		}
	}
	seen := map[cell.Key]bool{}
	got := map[cell.Key]cell.Summary{}
	for _, c := range cands {
		for _, ck := range c.children {
			if !seen[ck] {
				seen[ck] = true
				if cc := r.lookup(ck); cc != nil && !r.isStale(ck) {
					got[ck] = cc.Summary
				}
			}
		}
	}
	derived := map[cell.Key]cell.Summary{}
	for _, c := range cands {
		k := keys[c.parent]
		if _, done := derived[k]; done {
			continue
		}
		var sum cell.Summary
		ok := true
		for _, ck := range c.children {
			cs, present := got[ck]
			if !present {
				ok = false
				break
			}
			sum.Merge(cs)
		}
		if ok {
			derived[k] = sum
		}
	}
	if len(derived) > 0 {
		r.tick++
		for k, sum := range derived {
			r.insert(k, sum, r.tick)
			if !sum.Empty() {
				res.Cells[k] = sum
			}
		}
		r.maybeEvict()
	}
	var unresolved []cell.Key
	for _, k := range keys {
		if _, ok := derived[k]; !ok {
			unresolved = append(unresolved, k)
		}
	}
	return res, unresolved
}

// residentState is what the two stores must agree on, cell by cell: summary
// and bit-exact replacement state.
type residentState struct {
	sum                    cell.Summary
	fresh, touch, accesses uint64
}

func (r *refStore) state() map[cell.Key]residentState {
	out := map[cell.Key]residentState{}
	for lvl := range r.levels {
		for k, c := range r.levels[lvl] {
			out[k] = residentState{c.Summary, math.Float64bits(c.Freshness), uint64(c.LastTouch), uint64(c.Accesses)}
		}
	}
	return out
}

// graphState reads the same out of the graph's slabs, checking on the way
// that every stripe is sound: rows dense, each record found through the index
// at its own row and hashed to this stripe, nothing but zeroed records past
// the live rows, no chunk held beyond one of slack.
func graphState(t *testing.T, g *Graph) map[cell.Key]residentState {
	t.Helper()
	out := map[cell.Key]residentState{}
	total := 0
	for _, s := range g.stripes {
		s.mu.Lock()
		if s.index.Len() != s.n {
			t.Fatalf("stripe %d: index holds %d keys for %d records", s.idx, s.index.Len(), s.n)
		}
		if s.capacity() < s.n || len(s.head) > maxHead || len(s.slab) > 0 && len(s.head) != maxHead ||
			len(s.slab) > (max(s.n-len(s.head), 0)+recChunk-1)/recChunk+1 {
			t.Fatalf("stripe %d: a head of %d rows and %d chunks for %d records", s.idx, len(s.head), len(s.slab), s.n)
		}
		for row := 0; row < s.capacity(); row++ {
			rec := s.at(int32(row))
			if row >= s.n {
				if *rec != (record{}) {
					t.Fatalf("stripe %d: row %d past the %d live rows still holds %v", s.idx, row, s.n, rec.Key)
				}
				continue
			}
			if at, ok := s.index.Get(rec.Key); !ok || int(at) != row {
				t.Fatalf("stripe %d: record %v at row %d, index says %d (present %v)", s.idx, rec.Key, row, at, ok)
			}
			if g.stripeFor(rec.Key) != s {
				t.Fatalf("stripe %d holds %v, which hashes elsewhere", s.idx, rec.Key)
			}
			out[rec.Key] = residentState{rec.Summary, math.Float64bits(rec.Freshness), uint64(rec.LastTouch), uint64(rec.Accesses)}
		}
		total += s.n
		s.mu.Unlock()
	}
	if total != len(out) || total != g.Len() {
		t.Fatalf("slabs hold %d records, %d distinct keys, Len() = %d", total, len(out), g.Len())
	}
	return out
}

// requireSameStores fails unless the graph and the reference hold the same
// cells in the same state and report the same counters.
func requireSameStores(t *testing.T, step string, g *Graph, r *refStore) {
	t.Helper()
	got, want := graphState(t, g), r.state()
	if len(got) != len(want) {
		t.Fatalf("%s: %d resident cells, reference has %d", step, len(got), len(want))
	}
	var levelLen [cell.NumLevels]int
	stripeLen := make([]int, g.Stripes())
	for k, w := range want {
		if gs, ok := got[k]; !ok || gs != w {
			t.Fatalf("%s: cell %v: got %+v (present %v), reference %+v", step, k, gs, ok, w)
		}
		levelLen[k.Level()]++
		stripeLen[g.stripeIndex(k)]++
	}
	if g.Stats() != r.stats {
		t.Fatalf("%s: stats %+v, reference %+v", step, g.Stats(), r.stats)
	}
	if g.Tick() != r.tick {
		t.Fatalf("%s: tick %d, reference %d", step, g.Tick(), r.tick)
	}
	for lvl, n := range levelLen {
		if g.LevelLen(lvl) != n {
			t.Fatalf("%s: LevelLen(%d) = %d, reference %d", step, lvl, g.LevelLen(lvl), n)
		}
	}
	for i, n := range stripeLen {
		if g.StripeLen(i) != n {
			t.Fatalf("%s: StripeLen(%d) = %d, reference %d", step, i, g.StripeLen(i), n)
		}
	}
}

func requireSameResult(t *testing.T, step string, got, want query.Result) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d cells, reference %d", step, got.Len(), want.Len())
	}
	for k, w := range want.Cells {
		if gs, ok := got.Cells[k]; !ok || gs != w {
			t.Fatalf("%s: cell %v: got %+v (present %v), reference %+v", step, k, gs, ok, w)
		}
	}
}

// refUniverse is the key space the random operations draw from: three spatial
// levels under a few partitions and two temporal ones, so parents, children,
// lateral neighbors, coarse partials and negative entries all occur.
type refUniverse struct {
	rng  *rand.Rand
	keys []cell.Key
}

func newRefUniverse(rng *rand.Rand) *refUniverse {
	u := &refUniverse{rng: rng}
	hour := temporal.MustParse("2015-02-02T10", temporal.Hour)
	const alpha = "0123456789bcdefghjkmnpqrstuvwxyz"
	for _, part := range []string{"9q", "9r", "dr"} {
		for _, t := range []temporal.Label{day, hour} {
			u.keys = append(u.keys, cell.Key{Geohash: geohash.MustPack(part[:1]), Time: t}, cell.Key{Geohash: geohash.MustPack(part), Time: t})
			for i := 0; i < 6; i++ {
				gh3 := part + string(alpha[(i*5+3)%32])
				u.keys = append(u.keys, cell.Key{Geohash: geohash.MustPack(gh3), Time: t})
				for j := 0; j < 32; j++ {
					u.keys = append(u.keys, cell.Key{Geohash: geohash.MustPack(gh3 + string(alpha[j])), Time: t})
				}
			}
		}
	}
	return u
}

// sample draws n keys; a few may repeat.
func (u *refUniverse) sample(n int) []cell.Key {
	out := make([]cell.Key, n)
	start := u.rng.Intn(len(u.keys))
	for i := range out {
		if u.rng.Intn(4) == 0 {
			out[i] = u.keys[u.rng.Intn(len(u.keys))]
		} else {
			out[i] = u.keys[(start+i)%len(u.keys)] // a run: siblings and their parents
		}
	}
	return out
}

func (u *refUniverse) result(n int) query.Result {
	res := query.NewResult()
	for _, k := range u.sample(n) {
		var s cell.Summary
		for a := range s.Stats {
			if u.rng.Intn(3) > 0 {
				s.Observe(cell.Attr(a), u.rng.NormFloat64()*10)
			}
		}
		if !s.Empty() {
			res.Cells[k] = s
		}
	}
	return res
}

// distinct drops repeats, keeping first occurrences in order.
func distinct(keys []cell.Key) []cell.Key {
	seen := map[cell.Key]bool{}
	out := keys[:0:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// TestGraphMatchesReferenceStore drives the slab-backed graph and the
// map-backed reference with the same seeded sequence of every mutating
// operation, at three striping factors and a capacity small enough that
// eviction runs throughout. After every operation the two must return the
// same answer and hold the same cells — summaries, bit-equal freshness,
// counters, per-level and per-stripe sizes — and every stripe must be sound
// (graphState): each record reachable from the index, no row leaked.
func TestGraphMatchesReferenceStore(t *testing.T) {
	steps := 1500
	if testing.Short() {
		steps = 300
	}
	for _, stripes := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Stripes = stripes
			cfg.Capacity = 300
			cfg.SafeFraction = 0.8
			cfg.HalfLife = 40
			g, ref := NewGraph(cfg), newRefStore(cfg)
			u := newRefUniverse(rand.New(rand.NewSource(int64(19 + stripes))))
			rng := u.rng
			for i := 0; i < steps; i++ {
				var step string
				switch op := rng.Intn(20); {
				case op < 6:
					step = "Put"
					res := u.result(1 + rng.Intn(60))
					evictedBefore := g.Stats().Evictions
					g.Put(res)
					ref.put(res)
					if g.Stats().Evictions != evictedBefore {
						step = "Put+evict"
					}
				case op < 8:
					step = "PutEmpty"
					keys := u.sample(1 + rng.Intn(30))
					g.PutEmpty(keys)
					ref.putEmpty(keys)
				case op < 14:
					step = "GetBatch"
					keys := u.sample(1 + rng.Intn(80))
					got, gotMissing := g.GetBatch(keys)
					want, wantMissing := ref.getBatch(keys)
					requireSameResult(t, step, got, want)
					if fmt.Sprint(gotMissing) != fmt.Sprint(wantMissing) {
						t.Fatalf("step %d GetBatch: missing %v, reference %v", i, gotMissing, wantMissing)
					}
				case op < 16:
					step = "DeriveBatch"
					keys := u.sample(1 + rng.Intn(12))
					got, gotLeft := g.DeriveBatch(keys)
					want, wantLeft := ref.deriveBatch(keys)
					requireSameResult(t, step, got, want)
					if fmt.Sprint(gotLeft) != fmt.Sprint(wantLeft) {
						t.Fatalf("step %d DeriveBatch: unresolved %v, reference %v", i, gotLeft, wantLeft)
					}
				case op < 17:
					step = "Delete"
					for _, k := range u.sample(1 + rng.Intn(5)) {
						g.Delete(k)
						ref.remove(k)
					}
				case op < 18:
					step = "MarkStale"
					b := BlockRef{Prefix: u.keys[rng.Intn(len(u.keys))].Geohash.String(), Day: day}
					g.PLM().MarkStale(b)
					ref.markStale(b)
					keys := distinct(u.sample(40))
					_, wantMissing := newRefProbe(ref).missing(keys)
					if got := g.PLM().Missing(keys); fmt.Sprint(got) != fmt.Sprint(wantMissing) {
						t.Fatalf("step %d: PLM.Missing %v, reference %v", i, got, wantMissing)
					}
				case op < 19:
					step = "ExtractPartitions"
					moved := map[geohash.Hash]bool{geohash.MustPack([]string{"9q", "9r", "dr"}[rng.Intn(3)]): true}
					requireSameResult(t, step, g.ExtractPartitions(2, moved), ref.extractPartitions(2, moved))
				default:
					step = "DropCoarsePartials"
					changed := map[geohash.Hash]bool{geohash.MustPack([]string{"9q", "9r", "dr"}[rng.Intn(3)]): true}
					if got, want := g.DropCoarsePartials(2, changed), ref.dropCoarsePartials(2, changed); got != want {
						t.Fatalf("step %d: DropCoarsePartials = %d, reference %d", i, got, want)
					}
				}
				requireSameStores(t, fmt.Sprintf("step %d %s", i, step), g, ref)
			}
			if ref.stats.Evictions == 0 || ref.stats.Hits == 0 || ref.stats.Misses == 0 {
				t.Fatalf("sequence too tame to mean anything: %+v", ref.stats)
			}
		})
	}
}

// refProbe answers PLM.Missing from the reference without touching it.
type refProbe struct{ r *refStore }

func newRefProbe(r *refStore) refProbe { return refProbe{r} }

func (p refProbe) missing(keys []cell.Key) (present, missing []cell.Key) {
	for _, k := range keys {
		if p.r.lookup(k) == nil || p.r.isStale(k) {
			missing = append(missing, k)
		} else {
			present = append(present, k)
		}
	}
	return present, missing
}

// TestDeriveBatchMatchesReference holds the arithmetic child walk to the
// three-map derivation on the covers that matter: a complete spatial cover, a
// complete temporal cover, a parent both could serve, a cover with one stale
// child, one with one absent child, all-empty children, and the same parent
// asked for twice — derived once, resolved both times.
func TestDeriveBatchMatchesReference(t *testing.T) {
	const alpha = "0123456789bcdefghjkmnpqrstuvwxyz"
	cfg := DefaultConfig()
	g, ref := NewGraph(cfg), newRefStore(cfg)
	put := func(res query.Result) { g.Put(res); ref.put(res) }
	putEmpty := func(keys []cell.Key) { g.PutEmpty(keys); ref.putEmpty(keys) }
	children := func(parent string, t temporal.Label) []cell.Key {
		out := make([]cell.Key, 32)
		for i := range out {
			out[i] = cell.Key{Geohash: geohash.MustPack(parent + string(alpha[i])), Time: t}
		}
		return out
	}
	withData := func(keys []cell.Key) query.Result {
		res := query.NewResult()
		for i, k := range keys {
			var s cell.Summary
			s.Observe(cell.Temperature, float64(i))
			s.Observe(cell.Attr(i%cell.NumAttrs), float64(i)/3)
			res.Cells[k] = s
		}
		return res
	}

	spatial := cell.Key{Geohash: geohash.MustPack("9q8"), Time: day}
	put(withData(children("9q8", day)))
	var hours []cell.Key
	for h := 0; h < 24; h++ {
		hours = append(hours, cell.Key{Geohash: geohash.MustPack("dr5"), Time: temporal.MustParse(fmt.Sprintf("2015-02-02T%02d", h), temporal.Hour)})
	}
	temporalParent := cell.Key{Geohash: geohash.MustPack("dr5"), Time: day}
	put(withData(hours))
	// Both covers complete: the spatial one wins in both implementations.
	both := cell.Key{Geohash: geohash.MustPack("dr6"), Time: day}
	put(withData(children("dr6", day)))
	var bothHours []cell.Key
	for h := 0; h < 24; h++ {
		bothHours = append(bothHours, cell.Key{Geohash: geohash.MustPack("dr6"), Time: temporal.MustParse(fmt.Sprintf("2015-02-02T%02d", h), temporal.Hour)})
	}
	put(withData(bothHours))
	staleChild := cell.Key{Geohash: geohash.MustPack("9r2"), Time: day}
	put(withData(children("9r2", day)))
	g.PLM().MarkStale(BlockRef{Prefix: "9r2b", Day: day})
	ref.markStale(BlockRef{Prefix: "9r2b", Day: day})
	absentChild := cell.Key{Geohash: geohash.MustPack("9r3"), Time: day}
	put(withData(children("9r3", day)[1:]))
	allEmpty := cell.Key{Geohash: geohash.MustPack("9r4"), Time: day}
	putEmpty(children("9r4", day))
	mixedEmpty := cell.Key{Geohash: geohash.MustPack("9r5"), Time: day}
	put(withData(children("9r5", day)[:7]))
	putEmpty(children("9r5", day)[7:])
	noChildren := cell.Key{Geohash: geohash.MustPack("u4p"), Time: day}

	requireSameStores(t, "set-up", g, ref)
	keys := []cell.Key{spatial, temporalParent, staleChild, both, absentChild, allEmpty, spatial, mixedEmpty, noChildren, absentChild}
	got, gotLeft := g.DeriveBatch(keys)
	want, wantLeft := ref.deriveBatch(keys)
	requireSameResult(t, "DeriveBatch", got, want)
	if fmt.Sprint(gotLeft) != fmt.Sprint(wantLeft) {
		t.Fatalf("unresolved %v, reference %v", gotLeft, wantLeft)
	}
	requireSameStores(t, "after DeriveBatch", g, ref)
	if want.Len() != 4 || len(wantLeft) != 4 {
		t.Fatalf("the cases did not land as intended: derived %d cells, left %v", want.Len(), wantLeft)
	}
	if !g.PLM().Present(allEmpty) {
		t.Error("a parent of all-empty children must be cached as a negative entry")
	}
}

// TestEvictionTiesAreDeterministic: the cells of one Put share a score, so
// which of them an eviction takes must not depend on the order the Put's map
// happened to iterate in. Two graphs are fed the same operations with every
// result built in a different insertion order (which reorders Go's map
// iteration); they must evict identical victims.
func TestEvictionTiesAreDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 200
	cfg.SafeFraction = 0.5
	a, b := NewGraph(cfg), NewGraph(cfg)
	u := newRefUniverse(rand.New(rand.NewSource(7)))
	for round := 0; round < 12; round++ {
		keys := distinct(u.sample(90))
		forward, backward := query.NewResult(), query.NewResultCap(4*len(keys))
		for i := range keys {
			forward.Cells[keys[i]] = summaryWith(float64(i))
		}
		for i := len(keys) - 1; i >= 0; i-- {
			backward.Cells[keys[i]] = summaryWith(float64(i))
		}
		a.Put(forward)
		b.Put(backward)
		got, want := graphState(t, a), graphState(t, b)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d and %d cells survive", round, len(got), len(want))
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Fatalf("round %d: %v survived in one graph and was evicted from the other", round, k)
			}
		}
	}
	if a.Stats().Evictions == 0 {
		t.Fatal("nothing was evicted")
	}
}
