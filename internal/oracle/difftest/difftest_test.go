package difftest

import (
	"math/rand"
	"testing"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/oracle"
	"stash/internal/query"
)

// TestDifferentialMatrix is the headline harness run: every configuration in
// the matrix executes its full randomized workload (concurrent sessions of
// OLAP navigation steps), cross-checking each response against the
// sequential oracle cell-by-cell, plus the metamorphic repeat-identity and
// pan-continuity properties. Any divergence fails with a seed and a shrunk
// minimal repro.
func TestDifferentialMatrix(t *testing.T) {
	opts := Options{Seed: 1}
	if testing.Short() {
		opts.Steps = 40
		opts.Sessions = 2
	}
	configs := Matrix()
	if len(configs) < 8 {
		t.Fatalf("matrix has %d configs, want >= 8", len(configs))
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			stats, fail := Run(cfg, opts)
			if fail != nil {
				t.Fatalf("divergence:\n%s", fail.Error())
			}
			want := opts.withDefaults().Steps
			if cfg.Sequential {
				// single session
			} else {
				want *= opts.withDefaults().Sessions
			}
			if stats.Queries < want {
				t.Errorf("ran %d queries, want >= %d", stats.Queries, want)
			}
			if stats.Cells == 0 {
				t.Error("cross-checked zero cells — workload never hit data")
			}
			if stats.Repeats == 0 {
				t.Error("repeat-identity property never exercised")
			}
			if stats.PanPairs == 0 {
				t.Error("pan-continuity property never exercised")
			}
			if cfg.Updates && stats.Updates == 0 {
				t.Error("updates config applied no ingest bumps")
			}
			if !cfg.Faults && !cfg.Churn && (stats.Errors > 0 || stats.Partial > 0) {
				t.Errorf("healthy config saw %d errors / %d partial results",
					stats.Errors, stats.Partial)
			}
			if cfg.Churn && stats.Flips < 2 {
				t.Errorf("churn config flipped the epoch %d times; workload finished before membership moved", stats.Flips)
			}
			t.Logf("%s: %+v", cfg.Name, stats)
		})
	}
}

// mutations are the seeded aggregation-bug classes the harness must catch:
// each corrupts every non-empty response in a different way.
var mutations = []struct {
	name   string
	mutate func(q query.Query, r *query.Result)
}{
	{"count-bump", func(q query.Query, r *query.Result) {
		corruptOne(r, func(st *cell.Stat) { st.Count++ })
	}},
	{"sum-skew", func(q query.Query, r *query.Result) {
		corruptOne(r, func(st *cell.Stat) { st.Sum *= 1.25 })
	}},
	{"min-lower", func(q query.Query, r *query.Result) {
		corruptOne(r, func(st *cell.Stat) { st.Min -= 1000 })
	}},
	{"lane-drop", func(q query.Query, r *query.Result) {
		// Columnar-era bug class: one attribute lane lost in SummaryBatch
		// materialization — the whole temperature column vanishes from a
		// cell while the other attrs stay intact.
		dropLane(r, cell.Temperature)
	}},
	{"spurious-cell", func(q query.Query, r *query.Result) {
		if len(r.Cells) == 0 {
			return
		}
		var ghost cell.Key
		for k := range r.Cells {
			ghost = k
			break
		}
		ghost.Geohash |= 1 << 4 // a digit bit past the length: no real cell has this key
		s := cell.Summary{}
		s.Observe(cell.Temperature, 1)
		r.Cells[ghost] = s
	}},
}

// corruptOne applies f to the temperature stat of the lexically-smallest
// cell (deterministic victim). The result owns its summaries, so the
// corruption reaches nothing else.
func corruptOne(r *query.Result, f func(*cell.Stat)) {
	victim, found := smallestKey(r)
	if !found {
		return
	}
	cp := r.Cells[victim]
	f(&cp.Stats[cell.Temperature])
	r.Cells[victim] = cp
}

// dropLane empties one attribute of the deterministic victim cell.
func dropLane(r *query.Result, attr cell.Attr) {
	victim, found := smallestKey(r)
	if !found {
		return
	}
	cp := r.Cells[victim]
	cp.Stats[attr] = cell.Stat{}
	r.Cells[victim] = cp
}

// smallestKey picks the lexically-smallest cell key — a deterministic victim
// for the corruption hooks.
func smallestKey(r *query.Result) (cell.Key, bool) {
	var victim cell.Key
	found := false
	for k := range r.Cells {
		if !found || k.Less(victim) {
			victim = k
			found = true
		}
	}
	return victim, found
}

// TestMutationSmoke proves the harness detects deliberately injected
// aggregation bugs: with each corruption hook active, the run must fail
// with a cell diff, and the shrinker must minimize the session to a single
// reproducing step (the corruption fires on every response).
func TestMutationSmoke(t *testing.T) {
	for _, m := range mutations {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			opts := Options{Seed: 7, Steps: 30, Sessions: 1, Mutate: m.mutate}
			_, fail := Run(Config{Name: "mutation-" + m.name}, opts)
			if fail == nil {
				t.Fatalf("injected %s was not detected", m.name)
			}
			if fail.Kind != "diff" && fail.Kind != "repeat-identity" && fail.Kind != "pan-continuity" {
				t.Fatalf("unexpected failure kind %q:\n%s", fail.Kind, fail.Error())
			}
			if len(fail.Diffs) == 0 {
				t.Fatal("failure carries no cell diffs")
			}
			if len(fail.Repro) != 1 {
				t.Errorf("shrink left %d steps, want 1:\n%s", len(fail.Repro), fail.Error())
			}
			// The minimal repro must actually reproduce.
			if rf := Replay(Config{Name: "mutation-" + m.name}, opts, fail.Repro); rf == nil {
				t.Error("minimal repro does not reproduce the failure")
			}
		})
	}
}

// TestCleanRunNotFlagged: the same small run with no corruption passes —
// the mutation test's failures come from the injected bugs, not the
// harness.
func TestCleanRunNotFlagged(t *testing.T) {
	opts := Options{Seed: 7, Steps: 30, Sessions: 1}
	if _, fail := Run(Config{Name: "mutation-clean"}, opts); fail != nil {
		t.Fatalf("clean run flagged:\n%s", fail.Error())
	}
}

// TestGenSessionDeterministic: the workload generator is a pure function of
// (seed, config, session) — the shrinker's replay and the seed-reporting
// workflow both depend on this.
func TestGenSessionDeterministic(t *testing.T) {
	cfg := Config{Name: "updates", Updates: true, Sequential: true}
	opts := Options{Seed: 99, Steps: 120}
	a := GenSession(cfg, 0, opts)
	b := GenSession(cfg, 0, opts)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Op != b[i].Op || !a[i].Q.Equal(b[i].Q) {
			t.Fatalf("step %d differs: %v vs %v", i, a[i], b[i])
		}
		if (a[i].Update == nil) != (b[i].Update == nil) {
			t.Fatalf("step %d update presence differs", i)
		}
		if a[i].Update != nil && *a[i].Update != *b[i].Update {
			t.Fatalf("step %d update differs: %v vs %v", i, *a[i].Update, *b[i].Update)
		}
	}
	// Different sessions must explore different trajectories.
	c := GenSession(cfg, 1, opts)
	same := true
	for i := range a {
		if i >= len(c) || !a[i].Q.Equal(c[i].Q) {
			same = false
			break
		}
	}
	if same {
		t.Error("sessions 0 and 1 generated identical workloads")
	}
}

// TestSummaryMergeAlgebra pins the algebraic laws the whole derivation
// hierarchy rests on: Summary.Merge is commutative and associative (counts
// and extrema exactly; sums within float tolerance), with the empty summary
// as identity.
func TestSummaryMergeAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randSummary := func() cell.Summary {
		s := cell.Summary{}
		for _, attr := range []cell.Attr{cell.Temperature, cell.Humidity} {
			for n := rng.Intn(6); n >= 0; n-- {
				s.Observe(attr, rng.NormFloat64()*40)
			}
		}
		return s
	}
	merge := func(a, b cell.Summary) cell.Summary {
		a.Merge(b) // a is this call's copy
		return a
	}
	equal := func(a, b cell.Summary) bool {
		for attr, as := range a.Stats {
			if !as.ApproxEqual(b.Stats[attr], 1e-12) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 200; trial++ {
		a, b, c := randSummary(), randSummary(), randSummary()
		if !equal(merge(a, b), merge(b, a)) {
			t.Fatalf("merge not commutative (trial %d): %+v vs %+v", trial, a, b)
		}
		if !equal(merge(merge(a, b), c), merge(a, merge(b, c))) {
			t.Fatalf("merge not associative (trial %d)", trial)
		}
		if !equal(merge(a, cell.Summary{}), a) {
			t.Fatalf("empty summary not a merge identity (trial %d)", trial)
		}
	}
}

// TestCheckUsesClaimedSemantics: the comparison layer trusts the coverage
// report — a result claiming completeness is held to the exact contract
// even if its cells would pass as a subset.
func TestCheckUsesClaimedSemantics(t *testing.T) {
	want := query.NewResult()
	k := cell.Key{Geohash: geohash.MustPack("9v6k")}
	s := cell.Summary{}
	s.Observe(cell.Temperature, 5)
	s.Observe(cell.Temperature, 7)
	want.Cells[k] = s

	got := query.NewResult() // empty, claims complete (zero coverage)
	if diffs := oracle.Check(got, want); len(diffs) == 0 {
		t.Error("empty complete result accepted against non-empty oracle")
	}
	partial := query.NewResult()
	partial.Coverage = query.Coverage{Requested: 2, Covered: 1}
	if diffs := oracle.Check(partial, want); len(diffs) != 0 {
		t.Error("empty partial result rejected — subset semantics not applied")
	}
}
