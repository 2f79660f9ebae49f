package stash

import (
	"testing"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/temporal"
)

func TestPLMPresence(t *testing.T) {
	p := NewPLM()
	key := k("9q8")
	if p.Present(key) {
		t.Error("fresh PLM reports presence")
	}
	p.MarkPresent(key)
	if !p.Present(key) {
		t.Error("marked key not present")
	}
	p.MarkAbsent(key)
	if p.Present(key) {
		t.Error("unmarked key still present")
	}
	p.MarkAbsent(key) // idempotent
}

func TestPLMMissing(t *testing.T) {
	p := NewPLM()
	a, b, c := k("9q8"), k("9q9"), k("9qb")
	p.MarkPresent(a)
	p.MarkPresent(c)
	missing := p.Missing([]cell.Key{a, b, c})
	if len(missing) != 1 || missing[0] != b {
		t.Errorf("Missing = %v, want [%v]", missing, b)
	}
}

func TestPLMCompleteness(t *testing.T) {
	p := NewPLM()
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
	p := NewPLM()
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
	p := NewPLM()
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
	p := NewPLM()
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
	p := NewPLM()
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
	p := NewPLM()
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
	p := NewPLM()
	p.MarkStale(BlockRef{Prefix: "9q", Day: day})
	if p.IsStale(k("9q1")) {
		t.Error("absent cell reported stale")
	}
}
