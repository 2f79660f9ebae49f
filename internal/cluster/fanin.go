package cluster

// Parallel tournament fan-in for the coordinator's reply merge. The serial
// coordinator folded node replies one at a time after the fan-out barrier —
// O(k) merge work on one goroutine for k owner shares. The fanIn merges
// replies PAIRWISE AS THEY LAND, on the reply goroutines themselves: each
// arriving reply folds into a parked partial if there is one (into an arena
// of its own if not), and the resulting partial either parks (no partner
// waiting) or grabs the parked partner and merges with it, repeating until it
// parks or everything folded.
// With replies arriving concurrently this is a tournament tree — merge
// latency O(log k) in the share count — and the merges run on the already-
// running reply goroutines, bounded by a small semaphore so a huge fan-out
// cannot stampede the CPU.
//
// Correctness rests on the same algebra the serial loop used: Summary.Merge
// is commutative and associative (pinned by the difftest metamorphic suite),
// so the tournament's nondeterministic merge order changes only float
// summation order, which the oracle compares within SumEpsilon.
//
// Partials accumulate in pooled query.ColumnarResult arenas, so the whole
// merge allocates only on first use of a pool carcass; finish() materializes
// the single surviving partial into a plain Result and releases the arena.

import (
	"sync"

	"stash/internal/query"
)

// defaultFanInWorkers bounds concurrent pairwise merges when the cluster
// config leaves FanInWorkers at zero. Merges are memory-bound; a handful of
// lanes saturates the win.
const defaultFanInWorkers = 4

// fanInPartial is one undefeated tournament entrant: an accumulated partial
// and the height of the merge tree beneath it.
type fanInPartial struct {
	res   *query.ColumnarResult
	depth int
}

// fanIn accumulates share results into one merged Result. add() may be
// called concurrently from reply goroutines; finish()/discard() must be
// called exactly once, after all add() calls completed (the caller's
// WaitGroup barrier provides the happens-before edge).
type fanIn struct {
	sem    chan struct{} // bounds concurrent pairwise merges
	serial bool          // legacy serial map-merge baseline (FanInWorkers < 0)

	mu       sync.Mutex
	pending  []fanInPartial // parked entrants awaiting a partner
	legacy   []query.Result // serial mode: parts folded at finish
	parts    int
	maxDepth int
}

// newFanIn returns a fan-in sized by the cluster's FanInWorkers knob:
// 0 selects the default tournament bound, > 0 an explicit bound, < 0 the
// legacy serial merge (the benchmark baseline).
func newFanIn(workers int) *fanIn {
	if workers < 0 {
		return &fanIn{serial: true}
	}
	if workers == 0 {
		workers = defaultFanInWorkers
	}
	return &fanIn{sem: make(chan struct{}, workers)}
}

// add folds one share result into the tournament. When owned is true the
// fan-in takes ownership of res's cells map and recycles it once its cells
// are copied into the arena — pass false for results the caller retains.
func (f *fanIn) add(res query.Result, owned bool) {
	if res.Len() == 0 {
		if owned {
			query.PutResult(res)
		}
		return
	}
	if f.serial {
		f.mu.Lock()
		f.parts++
		f.legacy = append(f.legacy, res)
		f.mu.Unlock()
		return
	}
	// A reply that finds a partial parked folds straight into that partial's
	// arena; only one that finds nobody builds an arena of its own. Either
	// way its cells are indexed once.
	f.mu.Lock()
	f.parts++
	var p fanInPartial
	if n := len(f.pending); n > 0 {
		p = f.pending[n-1]
		f.pending = f.pending[:n-1]
	}
	f.mu.Unlock()
	if p.res == nil {
		p.res = query.GetColumnar()
	}
	p.res.MergeResult(res)
	p.depth++
	if owned {
		query.PutResult(res)
	}

	f.mu.Lock()
	for {
		if len(f.pending) == 0 {
			if p.depth > f.maxDepth {
				f.maxDepth = p.depth
			}
			f.pending = append(f.pending, p)
			f.mu.Unlock()
			return
		}
		q := f.pending[len(f.pending)-1]
		f.pending = f.pending[:len(f.pending)-1]
		f.mu.Unlock()

		f.sem <- struct{}{} // merge outside the lock, boundedly parallel
		// Gather the smaller partial into the larger one.
		if q.res.Len() >= p.res.Len() {
			q.res.MergeColumnar(p.res)
			p.res.Release()
			p.res = q.res
		} else {
			p.res.MergeColumnar(q.res)
			q.res.Release()
		}
		<-f.sem
		if q.depth > p.depth {
			p.depth = q.depth
		}
		p.depth++
		f.mu.Lock()
	}
}

// finish folds any still-parked partials, records the tournament depth, and
// materializes the merged Result. Must not race add().
func (f *fanIn) finish() query.Result {
	if f.serial {
		merged := query.NewResult()
		for _, r := range f.legacy {
			merged.Merge(r)
		}
		f.legacy = nil
		// The serial fold is a degenerate left-deep tree: its height is the
		// partial count. Reporting it keeps the depth histogram comparable
		// across modes.
		f.maxDepth = f.parts
		mFanInDepth.Observe(float64(f.maxDepth))
		return merged
	}
	if len(f.pending) == 0 {
		return query.NewResult()
	}
	acc := f.pending[0]
	for _, p := range f.pending[1:] {
		acc.res.MergeColumnar(p.res)
		p.res.Release()
		if p.depth > acc.depth {
			acc.depth = p.depth
		}
		acc.depth++
	}
	f.pending = f.pending[:0]
	if acc.depth > f.maxDepth {
		f.maxDepth = acc.depth
	}
	mFanInDepth.Observe(float64(f.maxDepth))
	out := acc.res.ToResult()
	acc.res.Release()
	return out
}

// stats reports how many partials were folded and the merge-tree height.
// Valid after finish.
func (f *fanIn) stats() (parts, depth int) { return f.parts, f.maxDepth }

// discard releases every parked partial without materializing — the error
// path's counterpart to finish. Must not race add().
func (f *fanIn) discard() {
	for _, p := range f.pending {
		p.res.Release()
	}
	f.pending = f.pending[:0]
	f.legacy = nil
}

// MergeResults merges share results with the coordinator's fan-in machinery:
// workers < 0 runs the legacy serial map merge, otherwise the parallel
// tournament (0 = default worker bound). Inputs are only read. Benchmarks
// and the bench harness use this to compare the two paths head to head.
func MergeResults(parts []query.Result, workers int) query.Result {
	f := newFanIn(workers)
	if f.serial {
		for _, p := range parts {
			f.add(p, false)
		}
		return f.finish()
	}
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(p query.Result) {
			defer wg.Done()
			f.add(p, false)
		}(p)
	}
	wg.Wait()
	return f.finish()
}
