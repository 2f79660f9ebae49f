package oracle

import (
	"testing"
	"time"

	"stash/internal/cell"
	"stash/internal/cluster"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/temporal"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.PointsPerBlock = 64
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func testQueries() []query.Query {
	box := geohash.Box{MinLat: 33, MaxLat: 37, MinLon: -103, MaxLon: -95}
	return []query.Query{
		{Box: box, Time: temporal.DayRange(2015, 2, 2), SpatialRes: 4, TemporalRes: temporal.Day},
		{Box: box, Time: temporal.DayRange(2015, 2, 2), SpatialRes: 3, TemporalRes: temporal.Day},
		{Box: box, Time: temporal.DayRange(2015, 2, 2), SpatialRes: 2, TemporalRes: temporal.Month},
		{Box: geohash.Box{MinLat: 34, MaxLat: 35, MinLon: -99, MaxLon: -98},
			Time: temporal.Range{Start: time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC),
				End: time.Date(2015, 2, 4, 0, 0, 0, 0, time.UTC)},
			SpatialRes: 5, TemporalRes: temporal.Day},
	}
}

// TestOracleMatchesCluster is the core differential assertion: for every
// query, the cluster's answer — cold, then warm (served from cached and
// derived cells on the repeat) — must be cell-for-cell identical to the
// oracle's sequential recomputation.
func TestOracleMatchesCluster(t *testing.T) {
	c := testCluster(t)
	o := ForCluster(c)
	cl := c.Client()
	for i, q := range testQueries() {
		want, err := o.Query(q)
		if err != nil {
			t.Fatalf("query %d: oracle: %v", i, err)
		}
		if want.Len() == 0 {
			t.Fatalf("query %d: oracle returned no cells (test dataset empty?)", i)
		}
		for _, pass := range []string{"cold", "warm"} {
			got, err := cl.Query(q)
			if err != nil {
				t.Fatalf("query %d (%s): cluster: %v", i, pass, err)
			}
			if !got.Coverage.Complete() {
				t.Fatalf("query %d (%s): healthy cluster returned partial coverage: %v",
					i, pass, got.Coverage)
			}
			if diffs := Check(got, want); len(diffs) > 0 {
				t.Errorf("query %d (%s): %d diffs vs oracle:\n%s",
					i, pass, len(diffs), FormatDiffs(diffs, 10))
			}
		}
	}
}

// TestOracleDeterministic: the oracle over the same seed is a pure function
// of the query — two independent instances and repeated evaluations agree
// exactly (including sums, since the scan order is fixed).
func TestOracleDeterministic(t *testing.T) {
	c := testCluster(t)
	o1 := ForCluster(c)
	o2 := ForCluster(c)
	q := testQueries()[0]
	r1, err := o1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := o2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := o1.Query(q) // memoized path
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []query.Result{r2, r3} {
		if diffs := Compare(r, r1); len(diffs) > 0 {
			t.Fatalf("oracle not deterministic:\n%s", FormatDiffs(diffs, 10))
		}
		for k, s := range r.Cells {
			for attr, st := range s.Stats {
				if st.Sum != r1.Cells[k].Stats[attr].Sum {
					t.Fatalf("oracle sums not bit-identical at %v %v", k, cell.Attr(attr))
				}
			}
		}
	}
}

// TestOracleBumpCoherence: after simulated ingest (UpdateBlock bumps the
// shared generator's block version and invalidates the cluster), oracle and
// cluster must still agree — the oracle's version-keyed memo picks up the
// new content without any invalidation protocol.
func TestOracleBumpCoherence(t *testing.T) {
	c := testCluster(t)
	o := ForCluster(c)
	cl := c.Client()
	q := testQueries()[0]

	before, err := o.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(q); err != nil { // populate caches pre-update
		t.Fatal(err)
	}
	// Quiesce the async population pipeline before bumping: population
	// stamps the PLM epoch at insert time, so a pre-bump fetch landing
	// after the bump would be recorded fresh while holding stale data
	// (the difftest driver settles before its update steps for the same
	// reason).
	settle(c)

	prefix := geohash.Encode(35, -99, o.BlockPrefixLen())
	day := temporal.At(time.Date(2015, 2, 2, 0, 0, 0, 0, time.UTC), temporal.Day)
	c.UpdateBlock(prefix, day)

	want, err := o.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(Compare(want, before)) == 0 {
		t.Fatal("UpdateBlock changed nothing the oracle can see (block outside footprint?)")
	}
	got, err := cl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Check(got, want); len(diffs) > 0 {
		t.Errorf("post-update cluster diverges from oracle:\n%s", FormatDiffs(diffs, 10))
	}
}

// mutate applies a named corruption to a deep copy of a result, returning
// the copy. Each corruption models a realistic aggregation bug class.
func mutate(r query.Result, kind string) query.Result {
	out := query.NewResult()
	out.Coverage = r.Coverage
	var victim cell.Key
	for k := range r.Cells {
		if victim == (cell.Key{}) || k.Geohash < victim.Geohash {
			victim = k // deterministic pick: smallest geohash
		}
	}
	for k, s := range r.Cells {
		cp := s
		if k == victim {
			st := &cp.Stats[cell.Temperature]
			switch kind {
			case "count-bump": // double-counted merge
				st.Count++
			case "sum-skew": // lost partial in a sum tree
				st.Sum *= 1.5
			case "min-lower": // impossible extremum
				st.Min -= 100
			case "drop-attr": // attribute lost in a wire round trip
				*st = cell.Stat{}
			}
		}
		out.Cells[k] = cp
	}
	switch kind {
	case "drop-cell": // cell lost in a merge
		delete(out.Cells, victim)
	case "spurious-cell": // cell binned to the wrong key
		ghost := victim
		ghost.Geohash |= 1 << 4 // a digit bit past the length: no real cell has this key
		s := cell.Summary{}
		s.Observe(cell.Temperature, 1)
		out.Cells[ghost] = s
	}
	return out
}

// TestCompareCatchesMutations is the mutation smoke test for the exact
// comparator: every seeded aggregation-bug class must produce diffs.
func TestCompareCatchesMutations(t *testing.T) {
	c := testCluster(t)
	o := ForCluster(c)
	want, err := o.Query(testQueries()[0])
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(want, want); len(diffs) != 0 {
		t.Fatalf("self-compare not clean:\n%s", FormatDiffs(diffs, 10))
	}
	for _, kind := range []string{
		"count-bump", "sum-skew", "min-lower", "drop-attr", "drop-cell", "spurious-cell",
	} {
		t.Run(kind, func(t *testing.T) {
			got := mutate(want, kind)
			if diffs := Compare(got, want); len(diffs) == 0 {
				t.Errorf("mutation %q not caught by Compare", kind)
			}
		})
	}
}

// TestCompareSubsetSemantics pins the partial-result contract: genuine
// subsets pass, impossible aggregates and spurious cells fail, and a cell
// claiming full count is held to the exact contract.
func TestCompareSubsetSemantics(t *testing.T) {
	key := func(gh string) cell.Key {
		return cell.Key{Geohash: geohash.MustPack(gh), Time: temporal.MustParse("2015-02-02", temporal.Day)}
	}
	stat := func(count int64, sum, min, max float64) (s cell.Summary) {
		s.Stats[cell.Temperature] = cell.Stat{Count: count, Sum: sum, Min: min, Max: max}
		return s
	}
	oracle := query.NewResult()
	oracle.Cells[key("9v6k")] = stat(10, 50, 1, 9)
	oracle.Cells[key("9v6m")] = stat(4, 12, 2, 5)

	partial := func(mod func(r *query.Result)) query.Result {
		r := query.NewResult()
		r.Coverage = query.Coverage{Requested: 2, Covered: 1, Degraded: 1}
		mod(&r)
		return r
	}

	cases := []struct {
		name string
		got  query.Result
		ok   bool
	}{
		{"missing-cell-ok", partial(func(r *query.Result) {
			r.Cells[key("9v6k")] = stat(10, 50, 1, 9)
		}), true},
		{"undercount-ok", partial(func(r *query.Result) {
			r.Cells[key("9v6k")] = stat(6, 30, 2, 8)
		}), true},
		{"overcount-bad", partial(func(r *query.Result) {
			r.Cells[key("9v6k")] = stat(11, 55, 1, 9)
		}), false},
		{"min-below-bad", partial(func(r *query.Result) {
			r.Cells[key("9v6k")] = stat(6, 30, 0.5, 8)
		}), false},
		{"max-above-bad", partial(func(r *query.Result) {
			r.Cells[key("9v6k")] = stat(6, 30, 2, 9.5)
		}), false},
		{"spurious-cell-bad", partial(func(r *query.Result) {
			r.Cells[key("zzzz")] = stat(1, 1, 1, 1)
		}), false},
		{"full-count-wrong-sum-bad", partial(func(r *query.Result) {
			r.Cells[key("9v6k")] = stat(10, 51, 1, 9)
		}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffs := Check(tc.got, oracle)
			if tc.ok && len(diffs) > 0 {
				t.Errorf("expected pass, got diffs:\n%s", FormatDiffs(diffs, 10))
			}
			if !tc.ok && len(diffs) == 0 {
				t.Error("expected diffs, comparator accepted the result")
			}
		})
	}
}

// TestFetchCellsMixedLevels: the oracle accepts key sets spanning hierarchy
// levels (as the cluster's Fetch path does) and aggregates each at its own
// resolution.
func TestFetchCellsMixedLevels(t *testing.T) {
	c := testCluster(t)
	o := ForCluster(c)
	day := temporal.At(time.Date(2015, 2, 2, 0, 0, 0, 0, time.UTC), temporal.Day)
	month := temporal.At(time.Date(2015, 2, 2, 0, 0, 0, 0, time.UTC), temporal.Month)
	coarse := geohash.Encode(35, -99, 3)
	fine := geohash.Encode(35, -99, 5)
	keys := []cell.Key{
		{Geohash: geohash.MustPack(coarse), Time: month},
		{Geohash: geohash.MustPack(fine), Time: day},
	}
	r, err := o.FetchCells(keys)
	if err != nil {
		t.Fatal(err)
	}
	// The cluster fetch path serves one hierarchy level per request, so
	// fetch per level and merge; the oracle handles the mixed set in one call.
	got := query.NewResult()
	for _, k := range keys {
		part, err := c.Client().Fetch([]cell.Key{k})
		if err != nil {
			t.Fatal(err)
		}
		got.Merge(part)
	}
	if diffs := Check(got, r); len(diffs) > 0 {
		t.Errorf("mixed-level fetch diverges:\n%s", FormatDiffs(diffs, 10))
	}
	// The coarse month cell must contain the fine day cell (footprint algebra).
	cs := r.Cells[keys[0]].Stats[cell.Temperature]
	fs := r.Cells[keys[1]].Stats[cell.Temperature]
	if fs.Count > cs.Count || fs.Min < cs.Min || fs.Max > cs.Max {
		t.Errorf("containment violated: fine %+v vs coarse %+v", fs, cs)
	}
}

// settle waits for the asynchronous cache-population pipeline to drain (3
// consecutive quiet 1ms windows), so an ingest bump cannot race an in-flight
// pre-bump population insert.
func settle(c *cluster.Cluster) {
	last := c.TotalStats().PopulatedCells
	quiet := 0
	for i := 0; i < 100 && quiet < 3; i++ {
		time.Sleep(time.Millisecond)
		cur := c.TotalStats().PopulatedCells
		if cur == last {
			quiet++
		} else {
			quiet = 0
			last = cur
		}
	}
}
