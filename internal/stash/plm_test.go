package stash

import (
	"fmt"
	"testing"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/temporal"
)

// plmGraph is a graph and its PLM. Residency is the graph's records, so a
// test makes a cell present by inserting it and absent by deleting it.
type plmGraph struct {
	*PLM
	g *Graph
}

func newPLMGraph() plmGraph {
	g := newTestGraph()
	return plmGraph{PLM: g.PLM(), g: g}
}

func (p plmGraph) MarkPresent(key cell.Key) { p.g.Put(resultWith(key)) }
func (p plmGraph) MarkAbsent(key cell.Key)  { p.g.Delete(key) }

func TestPLMPresence(t *testing.T) {
	p := newPLMGraph()
	key := k("9q8")
	if p.Present(key) {
		t.Error("fresh PLM reports presence")
	}
	p.MarkPresent(key)
	if !p.Present(key) {
		t.Error("inserted key not present")
	}
	p.MarkAbsent(key)
	if p.Present(key) {
		t.Error("deleted key still present")
	}
	p.MarkAbsent(key) // idempotent
}

func TestPLMMissing(t *testing.T) {
	p := newPLMGraph()
	a, b, c := k("9q8"), k("9q9"), k("9qb")
	p.MarkPresent(a)
	p.MarkPresent(c)
	missing := p.Missing([]cell.Key{a, b, c})
	if len(missing) != 1 || missing[0] != b {
		t.Errorf("Missing = %v, want [%v]", missing, b)
	}
}

func TestPLMCompleteness(t *testing.T) {
	p := newPLMGraph()
	keys := []cell.Key{k("9q8"), k("9q9"), k("9qb"), k("9qc")}
	if got := p.Completeness(keys); got != 0 {
		t.Errorf("empty PLM completeness = %v", got)
	}
	p.MarkPresent(keys[0])
	p.MarkPresent(keys[1])
	p.MarkPresent(keys[2])
	if got := p.Completeness(keys); got != 0.75 {
		t.Errorf("completeness = %v, want 0.75", got)
	}
	if got := p.Completeness(nil); got != 1 {
		t.Errorf("empty footprint completeness = %v, want 1", got)
	}
}

func TestPLMStaleSpatialOverlap(t *testing.T) {
	p := newPLMGraph()
	fine := k("9q8y7") // inside block prefix 9q
	coarse := k("9")   // encloses block prefix 9q
	other := k("u4p")  // disjoint from 9q
	for _, key := range []cell.Key{fine, coarse, other} {
		p.MarkPresent(key)
	}
	p.MarkStale(BlockRef{Prefix: "9q", Day: day})

	if !p.IsStale(fine) {
		t.Error("cell inside stale block not stale")
	}
	if !p.IsStale(coarse) {
		t.Error("cell enclosing stale block not stale")
	}
	if p.IsStale(other) {
		t.Error("disjoint cell reported stale")
	}
}

func TestPLMStaleTemporalOverlap(t *testing.T) {
	p := newPLMGraph()
	sameDay := k("9q8")
	otherDay := cell.Key{Geohash: geohash.MustPack("9q8"), Time: temporal.MustParse("2015-02-03", temporal.Day)}
	month := cell.Key{Geohash: geohash.MustPack("9q8"), Time: temporal.MustParse("2015-02", temporal.Month)}
	otherMonth := cell.Key{Geohash: geohash.MustPack("9q8"), Time: temporal.MustParse("2015-03", temporal.Month)}
	for _, key := range []cell.Key{sameDay, otherDay, month, otherMonth} {
		p.MarkPresent(key)
	}
	p.MarkStale(BlockRef{Prefix: "9q", Day: day})

	if !p.IsStale(sameDay) {
		t.Error("same-day cell not stale")
	}
	if p.IsStale(otherDay) {
		t.Error("other-day cell stale")
	}
	if !p.IsStale(month) {
		t.Error("enclosing month cell not stale")
	}
	if p.IsStale(otherMonth) {
		t.Error("disjoint month cell stale")
	}
}

func TestPLMClearStale(t *testing.T) {
	p := newPLMGraph()
	b := BlockRef{Prefix: "9q", Day: day}
	p.MarkStale(b)
	if p.StaleCount() != 1 {
		t.Errorf("StaleCount = %d", p.StaleCount())
	}
	p.ClearStale(b)
	if p.StaleCount() != 0 || p.IsStale(k("9q8")) {
		t.Error("cleared block still stale")
	}
}

func TestPLMMissingIncludesStale(t *testing.T) {
	p := newPLMGraph()
	key := k("9q8")
	p.MarkPresent(key)
	p.MarkStale(BlockRef{Prefix: "9q", Day: day})
	missing := p.Missing([]cell.Key{key})
	if len(missing) != 1 {
		t.Error("stale present cell should count as missing")
	}
}

// TestPLMEpochSemantics pins the update flow: a cell recomputed AFTER a
// block invalidation is immediately current, while the invalidation record
// keeps flagging cells resident from before it.
func TestPLMEpochSemantics(t *testing.T) {
	p := newPLMGraph()
	old, fresh := k("9q1"), k("9q2")
	p.MarkPresent(old)
	p.MarkStale(BlockRef{Prefix: "9q", Day: day})
	p.MarkPresent(fresh) // recomputed after the update

	if !p.IsStale(old) {
		t.Error("pre-update cell not stale")
	}
	if p.IsStale(fresh) {
		t.Error("post-update cell reported stale")
	}
	// Re-marking the old cell (its refetch landed) clears its staleness
	// without touching the block record.
	p.MarkPresent(old)
	if p.IsStale(old) {
		t.Error("refetched cell still stale")
	}
	if p.StaleCount() != 1 {
		t.Error("block record should persist until cleared")
	}
}

func TestPLMNonResidentNeverStale(t *testing.T) {
	p := newPLMGraph()
	p.MarkStale(BlockRef{Prefix: "9q", Day: day})
	if p.IsStale(k("9q1")) {
		t.Error("absent cell reported stale")
	}
}

// TestPLMAgreesWithGetBatch pins the residency-epoch semantics end to end on
// one graph: a cell inserted before MarkStale is stale, one re-inserted after
// it is current, a negative-cache entry follows the same rule, and
// Missing/Completeness report exactly the keys GetBatch then misses.
func TestPLMAgreesWithGetBatch(t *testing.T) {
	for _, stripes := range []int{1, 16} {
		cfg := DefaultConfig()
		cfg.Stripes = stripes
		g := NewGraph(cfg)
		before, refetched, after, empty, absent := k("9q1"), k("9q2"), k("9q3"), k("9q4"), k("9q5")
		elsewhere := k("u4p")
		g.Put(resultWith(before, refetched, elsewhere))
		g.PutEmpty([]cell.Key{empty})
		g.PLM().MarkStale(BlockRef{Prefix: "9q", Day: day})
		g.Put(resultWith(refetched, after)) // recomputed after the update

		keys := []cell.Key{before, refetched, after, empty, absent, elsewhere}
		for key, want := range map[cell.Key]bool{before: true, refetched: false, after: false, empty: true, absent: false, elsewhere: false} {
			if got := g.PLM().IsStale(key); got != want {
				t.Errorf("stripes=%d: IsStale(%v) = %v, want %v", stripes, key, got, want)
			}
		}
		wantMissing := []cell.Key{before, empty, absent}
		missing := g.PLM().Missing(keys)
		if fmt.Sprint(missing) != fmt.Sprint(wantMissing) {
			t.Errorf("stripes=%d: Missing = %v, want %v", stripes, missing, wantMissing)
		}
		if got := g.PLM().Completeness(keys); got != 0.5 {
			t.Errorf("stripes=%d: Completeness = %v, want 0.5", stripes, got)
		}
		if !g.PLM().Present(before) {
			t.Errorf("stripes=%d: Missing must not evict the stale cell it reports", stripes)
		}
		_, missed := g.GetBatch(keys)
		if fmt.Sprint(missed) != fmt.Sprint(wantMissing) {
			t.Errorf("stripes=%d: GetBatch missed %v, the PLM said %v", stripes, missed, wantMissing)
		}
		// GetBatch dropped the stale cells on the way; the PLM still calls
		// them missing, now as absent ones.
		if g.PLM().Present(before) || g.PLM().Present(empty) {
			t.Errorf("stripes=%d: stale cells still resident after GetBatch missed them", stripes)
		}
		if again := g.PLM().Missing(keys); fmt.Sprint(again) != fmt.Sprint(wantMissing) {
			t.Errorf("stripes=%d: Missing after the get = %v, want %v", stripes, again, wantMissing)
		}
	}
}
