package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"stash/internal/cell"
	"stash/internal/query"
	"stash/internal/temporal"
)

func fanKey(i int) cell.Key {
	return cell.MustKey(fmt.Sprintf("9q%04d", i), "2021-06-01", temporal.Day)
}

// fanParts builds node-reply-shaped results: `parts` results of
// `keysPerPart` cells each, drawn from a shared key universe so partials
// overlap (the common case for sibling shares of one viewport).
func fanParts(seed int64, parts, keysPerPart, universe int) []query.Result {
	rng := rand.New(rand.NewSource(seed))
	out := make([]query.Result, parts)
	for p := range out {
		out[p] = query.NewResult()
		for i := 0; i < keysPerPart; i++ {
			s := cell.Summary{}
			s.Observe(cell.Temperature, rng.NormFloat64()*30)
			s.Observe(cell.Humidity, rng.Float64()*100)
			out[p].Add(fanKey(rng.Intn(universe)), s)
		}
	}
	return out
}

func requireSameCells(t *testing.T, got, want query.Result) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for k, ws := range want.Cells {
		gs, ok := got.Cells[k]
		if !ok {
			t.Fatalf("missing key %v", k)
		}
		for attr, w := range ws.Stats {
			if g := gs.Stats[attr]; !g.ApproxEqual(w, 1e-9) {
				t.Fatalf("key %v attr %q: got %+v want %+v", k, attr, g, w)
			}
		}
	}
}

// TestFanInMatchesSerial: the tournament must produce the same cells as the
// legacy serial fold over the same partials (float sums within SumEpsilon-
// style tolerance; the merge algebra is commutative/associative).
func TestFanInMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 8, 33} {
		parts := fanParts(int64(n)+1, n, 32, 64)
		want := MergeResults(parts, -1)
		got := MergeResults(parts, 0)
		requireSameCells(t, got, want)
	}
}

// TestFanInConcurrentAdds drives add() from many goroutines at once — the
// production shape, where reply goroutines merge as replies land — and checks
// the result and the reported stats.
func TestFanInConcurrentAdds(t *testing.T) {
	const n = 40
	parts := fanParts(99, n, 16, 48)
	want := MergeResults(parts, -1)

	fi := newFanIn(4)
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(p query.Result) {
			defer wg.Done()
			fi.add(p, false)
		}(p)
	}
	wg.Wait()
	got := fi.finish()
	requireSameCells(t, got, want)

	gotParts, depth := fi.stats()
	if gotParts != n {
		t.Fatalf("parts = %d, want %d", gotParts, n)
	}
	// Tournament height is at least ceil(log2(n)) and at most n.
	if depth < 6 || depth > n {
		t.Fatalf("depth = %d, outside [log2(%d), %d]", depth, n, n)
	}
}

// TestFanInOwnedRecycling: owned results must be recycled (pooled) and empty
// owned results skipped, without corrupting the merge.
func TestFanInOwnedRecycling(t *testing.T) {
	parts := fanParts(7, 6, 16, 24)
	want := MergeResults(parts, -1)

	fi := newFanIn(2)
	for _, p := range parts {
		owned := query.GetResult(p.Len())
		for k, s := range p.Cells {
			owned.Add(k, s)
		}
		fi.add(owned, true)
	}
	fi.add(query.GetResult(0), true) // empty owned result: skipped, recycled
	requireSameCells(t, fi.finish(), want)
}

// TestFanInDiscard: the error path must release parked partials without
// panicking, and finish-after-nothing must return an empty result.
func TestFanInDiscard(t *testing.T) {
	fi := newFanIn(0)
	for _, p := range fanParts(3, 4, 8, 16) {
		fi.add(p, false)
	}
	fi.discard()

	fi2 := newFanIn(0)
	if r := fi2.finish(); r.Len() != 0 {
		t.Fatalf("empty fan-in produced %d cells", r.Len())
	}
}

// TestMergeResultsSerialDepth: the serial baseline reports the partial count
// as its (left-deep) merge depth.
func TestMergeResultsSerialDepth(t *testing.T) {
	fi := newFanIn(-1)
	for _, p := range fanParts(5, 7, 8, 16) {
		fi.add(p, false)
	}
	fi.finish()
	parts, depth := fi.stats()
	if parts != 7 || depth != 7 {
		t.Fatalf("serial stats = (%d, %d), want (7, 7)", parts, depth)
	}
}

// BenchmarkFanIn compares the legacy serial reply fold against the parallel
// tournament at increasing fan-out widths. Each iteration replays the
// production shape: one goroutine per node reply calling add() concurrently,
// then a single finish(). The tournament's advantage grows with width —
// the acceptance bar is beating serial from 16 nodes up.
func BenchmarkFanIn(b *testing.B) {
	for _, nodes := range []int{8, 16, 32, 64} {
		parts := fanParts(int64(nodes), nodes, 256, 1024)
		b.Run(fmt.Sprintf("serial/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fi := newFanIn(-1)
				for _, p := range parts {
					fi.add(p, false)
				}
				fi.finish()
			}
		})
		b.Run(fmt.Sprintf("tournament/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fi := newFanIn(0)
				var wg sync.WaitGroup
				for _, p := range parts {
					wg.Add(1)
					go func(p query.Result) {
						defer wg.Done()
						fi.add(p, false)
					}(p)
				}
				wg.Wait()
				fi.finish()
			}
		})
	}
}
