package oracle

import (
	"fmt"
	"sort"
	"strings"

	"stash/internal/cell"
	"stash/internal/query"
)

// SumEpsilon is the relative tolerance for aggregate sums. Counts, minima
// and maxima are order-independent reductions and must match bit-exactly;
// sums accumulate in whatever order the serving path merged partials
// (per-node, per-block, per-derivation-child), so they may differ from the
// oracle's sequential scan in the low bits.
const SumEpsilon = 1e-9

// Diff is one cell-level disagreement between a system result and the
// oracle's recomputation.
type Diff struct {
	Key   cell.Key
	Attr  string // empty for presence-level diffs
	Field string // "count", "sum", "min", "max", "cell", "attrs"
	Got   float64
	Want  float64
	Msg   string
}

func (d Diff) String() string {
	if d.Msg != "" {
		return fmt.Sprintf("%v: %s", d.Key, d.Msg)
	}
	return fmt.Sprintf("%v: %s.%s got %v want %v", d.Key, d.Attr, d.Field, d.Got, d.Want)
}

// FormatDiffs renders diffs one per line, capped so a badly wrong result
// does not drown the report.
func FormatDiffs(diffs []Diff, max int) string {
	var b strings.Builder
	for i, d := range diffs {
		if max > 0 && i >= max {
			fmt.Fprintf(&b, "  ... and %d more\n", len(diffs)-i)
			break
		}
		fmt.Fprintf(&b, "  %s\n", d.String())
	}
	return b.String()
}

// Check compares a system result against the oracle's answer using the
// semantics the result claims for itself: a complete result (by coverage
// report, or zero-value coverage meaning "complete by construction") must
// match exactly; a partial result must be a subset — present cells may
// under-count but must never be impossible, and no cell may appear that the
// oracle says holds no data. It returns nil when the result is acceptable.
func Check(got, want query.Result) []Diff {
	if got.Coverage.Complete() {
		return Compare(got, want)
	}
	return CompareSubset(got, want)
}

// Compare checks exact cell-by-cell equivalence: identical key sets
// (non-empty cells only) and, per key, identical attribute sets with equal
// stats (sum within SumEpsilon).
func Compare(got, want query.Result) []Diff {
	var diffs []Diff
	for _, k := range sortedKeys(want) {
		ws := want.Cells[k]
		gs, ok := got.Cells[k]
		if !ok {
			diffs = append(diffs, Diff{Key: k, Field: "cell",
				Msg: fmt.Sprintf("missing cell (oracle has %d attrs)", len(ws.Attrs()))})
			continue
		}
		diffs = append(diffs, compareCell(k, gs, ws)...)
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want.Cells[k]; !ok {
			diffs = append(diffs, Diff{Key: k, Field: "cell",
				Msg: "unexpected cell (oracle says empty)"})
		}
	}
	return diffs
}

// CompareSubset checks the partial-result contract: every served cell must
// be the aggregate of a subset of the oracle's observations for that cell —
// count no larger, min no smaller, max no greater — and cells the oracle
// holds no data for must not appear at all. A served cell whose count equals
// the oracle's is complete and must match exactly. Absent cells are fine:
// that is what "partial" means.
func CompareSubset(got, want query.Result) []Diff {
	var diffs []Diff
	for _, k := range sortedKeys(got) {
		gs := got.Cells[k]
		ws, ok := want.Cells[k]
		if !ok {
			diffs = append(diffs, Diff{Key: k, Field: "cell",
				Msg: "unexpected cell in partial result (oracle says empty)"})
			continue
		}
		for a, gst := range gs.Stats {
			if gst.Count == 0 {
				continue
			}
			attr, wst := cell.Attr(a).String(), ws.Stats[a]
			if wst.Count == 0 {
				diffs = append(diffs, Diff{Key: k, Attr: attr, Field: "attrs",
					Msg: fmt.Sprintf("attribute %q not in oracle cell", attr)})
				continue
			}
			if gst.Count == wst.Count {
				// Fully served cell inside a partial result: exact contract.
				diffs = append(diffs, compareStat(k, attr, gst, wst)...)
				continue
			}
			if !gst.SubsetOf(wst) {
				diffs = append(diffs, Diff{Key: k, Attr: attr, Field: "count",
					Got: float64(gst.Count), Want: float64(wst.Count),
					Msg: fmt.Sprintf("%s: not a subset of the oracle aggregate (count %d vs %d, min %v vs %v, max %v vs %v)",
						attr, gst.Count, wst.Count, gst.Min, wst.Min, gst.Max, wst.Max)})
			}
		}
	}
	return diffs
}

// compareCell checks one cell's full equality: same attributes, equal stats.
func compareCell(k cell.Key, got, want cell.Summary) []Diff {
	var diffs []Diff
	for a, wst := range want.Stats {
		attr, gst := cell.Attr(a).String(), got.Stats[a]
		switch {
		case wst.Count > 0 && gst.Count == 0:
			diffs = append(diffs, Diff{Key: k, Attr: attr, Field: "attrs",
				Msg: fmt.Sprintf("missing attribute %q", attr)})
		case wst.Count == 0 && gst.Count > 0:
			diffs = append(diffs, Diff{Key: k, Attr: attr, Field: "attrs",
				Msg: fmt.Sprintf("unexpected attribute %q", attr)})
		case wst.Count > 0:
			diffs = append(diffs, compareStat(k, attr, gst, wst)...)
		}
	}
	return diffs
}

// compareStat checks one attribute aggregate field by field, so a failure
// names exactly which reduction went wrong.
func compareStat(k cell.Key, attr string, got, want cell.Stat) []Diff {
	var diffs []Diff
	if got.Count != want.Count {
		diffs = append(diffs, Diff{Key: k, Attr: attr, Field: "count",
			Got: float64(got.Count), Want: float64(want.Count)})
	}
	if got.Count == 0 || want.Count == 0 {
		return diffs
	}
	if got.Min != want.Min {
		diffs = append(diffs, Diff{Key: k, Attr: attr, Field: "min", Got: got.Min, Want: want.Min})
	}
	if got.Max != want.Max {
		diffs = append(diffs, Diff{Key: k, Attr: attr, Field: "max", Got: got.Max, Want: want.Max})
	}
	if !got.ApproxEqual(cell.Stat{Count: got.Count, Sum: want.Sum, Min: got.Min, Max: got.Max}, SumEpsilon) {
		diffs = append(diffs, Diff{Key: k, Attr: attr, Field: "sum", Got: got.Sum, Want: want.Sum})
	}
	return diffs
}

// sortedKeys returns a result's keys in deterministic (geohash, time) order
// so diff reports are stable.
func sortedKeys(r query.Result) []cell.Key {
	keys := make([]cell.Key, 0, len(r.Cells))
	for k := range r.Cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}
