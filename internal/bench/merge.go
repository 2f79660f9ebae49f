package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"stash/internal/cell"
	"stash/internal/cluster"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/temporal"
)

func init() {
	registry["ext-merge"] = ExtMerge
}

// mergeOutcome carries the structured serial-vs-tournament numbers so tests
// can assert the shape (tournament wins from 16 shares up) without re-parsing
// table rows.
type mergeOutcome struct {
	widths     []int
	serial     []time.Duration
	tournament []time.Duration
}

// ExtMerge measures the coordinator's reply fan-in: the legacy serial fold
// (one goroutine merges k node replies after the fan-out barrier, O(k) depth)
// against the parallel tournament (replies merge pairwise as they land on the
// reply goroutines, O(log k) depth, pooled columnar arenas). Reply shapes
// mirror production: sibling shares of one viewport, so partials overlap
// heavily and the merge is dominated by same-key stat folds.
func ExtMerge(opts Options) (Report, error) {
	rep, _, err := runExtMerge(opts)
	return rep, err
}

func runExtMerge(opts Options) (Report, mergeOutcome, error) {
	rep := Report{
		ID:      "ext-merge",
		Title:   "coordinator reply fan-in: serial fold vs parallel tournament",
		Columns: []string{"shares", "keys/share", "serial_ms", "tournament_ms", "speedup"},
	}
	out := mergeOutcome{widths: []int{8, 16, 32, 64}}

	keysPerPart := opts.pick(256, 1024)
	universe := 4 * keysPerPart // sibling shares overlap on ~1/4 of keys
	reps := opts.pick(20, 60)

	for _, width := range out.widths {
		parts := mergeParts(newRng(opts, int64(width)), width, keysPerPart, universe)
		serial := timeMerge(parts, -1, reps)
		tourn := timeMerge(parts, 0, reps)
		out.serial = append(out.serial, serial)
		out.tournament = append(out.tournament, tourn)
		rep.AddRow(fmt.Sprintf("%d", width), fmt.Sprintf("%d", keysPerPart),
			ms(serial), ms(tourn), ratio(serial, tourn))
	}

	for i, width := range out.widths {
		if width >= 16 && out.tournament[i] >= out.serial[i] {
			rep.AddNote("SHAPE MISS: tournament did not beat serial at %d shares (%s vs %s)",
				width, ms(out.tournament[i])+"ms", ms(out.serial[i])+"ms")
		}
	}
	last := len(out.widths) - 1
	rep.AddNote("tournament speedup grows with fan-out: %s at %d shares -> %s at %d shares",
		ratio(out.serial[0], out.tournament[0]), out.widths[0],
		ratio(out.serial[last], out.tournament[last]), out.widths[last])
	rep.AddNote("steady-state pooled columnar merge: %.1f allocs/op (CI gate: 0)",
		mergeAllocsPerOp(mergeParts(newRng(opts, 1), 16, keysPerPart, universe), reps))
	return rep, out, nil
}

// mergeAllocsPerOp measures heap allocations per pooled columnar merge at
// steady state — the same quantity BenchmarkResultMergeSteadyState gates at
// zero — so the trajectory JSON records it alongside the speedups.
func mergeAllocsPerOp(parts []query.Result, reps int) float64 {
	fold := func() {
		c := query.GetColumnar()
		for _, p := range parts {
			c.MergeResult(p)
		}
		c.Release()
	}
	for i := 0; i < 8; i++ {
		fold() // warm the pools and pre-grow capacities
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fold()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// mergeParts builds node-reply-shaped results: width results of keysPerPart
// cells drawn from a shared key universe.
func mergeParts(rng *rand.Rand, width, keysPerPart, universe int) []query.Result {
	day := temporal.MustParse("2015-02-01", temporal.Day)
	parts := make([]query.Result, width)
	for p := range parts {
		parts[p] = query.NewResult()
		for i := 0; i < keysPerPart; i++ {
			s := cell.Summary{}
			s.Observe(cell.Temperature, rng.NormFloat64()*30)
			s.Observe(cell.Humidity, rng.Float64()*100)
			s.Observe(cell.Precipitation, rng.Float64()*10)
			k := cell.Key{Geohash: geohash.MustPack(fmt.Sprintf("9q%05d", rng.Intn(universe))), Time: day}
			parts[p].Add(k, s)
		}
	}
	return parts
}

// timeMerge folds the same parts through the fan-in in three batches of reps
// and returns the mean wall time per merge of the fastest batch. On a shared
// host a neighbour's burst lands in one batch or another, and the two paths
// are closer than they were: with summaries stored by value the serial fold
// got about 7x cheaper and the tournament about 4x, so the tournament's lead
// at 16 / 32 / 64 shares went from 2.2x / 3.2x / 4.5x to 1.5x / 2.0x / 2.2x
// (ten runs: 1.2-1.7x, 1.7-2.4x, 1.9-2.3x) — still a win from 16 shares up,
// but one burst inside a single 20-rep mean flipped the 16-share row about
// once in twenty runs.
func timeMerge(parts []query.Result, workers, reps int) time.Duration {
	// One untimed pass warms the Result/arena pools so the tournament is
	// measured at steady state, like the coordinator after its first queries.
	cluster.MergeResults(parts, workers)
	best := time.Duration(0)
	for batch := 0; batch < 3; batch++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			cluster.MergeResults(parts, workers)
		}
		if d := time.Since(start) / time.Duration(reps); batch == 0 || d < best {
			best = d
		}
	}
	return best
}
