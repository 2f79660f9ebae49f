// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VIII). Each benchmark drives the same runner as `stashbench -exp <id>`,
// at reduced scale so `go test -bench=.` completes in minutes; run
// `stashbench -exp all -full -nodes 120` for paper-scale counts.
//
// The reported ns/op is the wall time of regenerating the whole experiment
// once; the shape assertions live in the harness's notes and are recorded in
// EXPERIMENTS.md.
package stash_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"stash/internal/bench"
	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/query"
	istash "stash/internal/stash"
	"stash/internal/temporal"
)

// benchOpts shrinks experiments to benchmark scale.
func benchOpts() bench.Options {
	opts := bench.DefaultOptions()
	opts.Nodes = 8
	opts.Quick = true
	return opts
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(id, opts); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkFig6aLatencyVsQuerySize regenerates Fig. 6a: latency per query
// size for basic / empty-STASH / warm-STASH.
func BenchmarkFig6aLatencyVsQuerySize(b *testing.B) { runExperiment(b, "fig6a") }

// BenchmarkFig6bThroughput regenerates Fig. 6b: throughput basic vs STASH
// per query size.
func BenchmarkFig6bThroughput(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkFig6cMaintenance regenerates Fig. 6c: cold-start cell population
// cost per query size.
func BenchmarkFig6cMaintenance(b *testing.B) { runExperiment(b, "fig6c") }

// BenchmarkFig6dHotspot regenerates Fig. 6d: hotspot responses/sec with and
// without dynamic clique replication.
func BenchmarkFig6dHotspot(b *testing.B) { runExperiment(b, "fig6d") }

// BenchmarkFig7aDicingDescending regenerates Fig. 7a.
func BenchmarkFig7aDicingDescending(b *testing.B) { runExperiment(b, "fig7a") }

// BenchmarkFig7bDicingAscending regenerates Fig. 7b.
func BenchmarkFig7bDicingAscending(b *testing.B) { runExperiment(b, "fig7b") }

// BenchmarkFig7cPanning regenerates Fig. 7c: panning latency basic vs STASH
// at 10/20/25% pan fractions.
func BenchmarkFig7cPanning(b *testing.B) { runExperiment(b, "fig7c") }

// BenchmarkFig7dDrillDown regenerates Fig. 7d: drill-down with 50/75/100%
// pre-stocked cells.
func BenchmarkFig7dDrillDown(b *testing.B) { runExperiment(b, "fig7d") }

// BenchmarkFig7eRollUp regenerates Fig. 7e: roll-up with 50/75/100%
// pre-stocked cells.
func BenchmarkFig7eRollUp(b *testing.B) { runExperiment(b, "fig7e") }

// BenchmarkFig8aPanningVsElastic regenerates Fig. 8a: panning on STASH vs
// the ElasticSearch comparator.
func BenchmarkFig8aPanningVsElastic(b *testing.B) { runExperiment(b, "fig8a") }

// BenchmarkFig8bDicingAscVsElastic regenerates Fig. 8b.
func BenchmarkFig8bDicingAscVsElastic(b *testing.B) { runExperiment(b, "fig8b") }

// BenchmarkFig8cDicingDescVsElastic regenerates Fig. 8c.
func BenchmarkFig8cDicingDescVsElastic(b *testing.B) { runExperiment(b, "fig8c") }

// BenchmarkAblationFreshness regenerates abl-freshness: cell replacement
// with vs without freshness dispersion.
func BenchmarkAblationFreshness(b *testing.B) { runExperiment(b, "abl-freshness") }

// BenchmarkAblationPLM regenerates abl-plm: PLM missing-chunk tracking vs
// whole-request refetch.
func BenchmarkAblationPLM(b *testing.B) { runExperiment(b, "abl-plm") }

// BenchmarkAblationAntipode regenerates abl-antipode: antipode helper
// selection vs uniform random.
func BenchmarkAblationAntipode(b *testing.B) { runExperiment(b, "abl-antipode") }

// BenchmarkExtCoalesce regenerates ext-coalesce: duplicate-heavy concurrent
// sessions with request coalescing + serve-side singleflight off vs on.
func BenchmarkExtCoalesce(b *testing.B) { runExperiment(b, "ext-coalesce") }

// BenchmarkExtMerge regenerates ext-merge: the coordinator's serial reply
// fold vs the parallel tournament fan-in at 8-64 shares.
func BenchmarkExtMerge(b *testing.B) { runExperiment(b, "ext-merge") }

// BenchmarkGraphParallel measures the STASH graph under concurrent workers at
// different lock-striping factors. stripes=1 is the original single-lock
// graph; with -cpu=4 (or more) *hardware* threads the striped variants win by
// spreading map accesses across independent locks, at the cost of a small
// single-threaded grouping overhead (on a 1-core box all variants are
// necessarily within noise of each other, since wall time then equals total
// CPU work). Run with
//
//	go test -run=NONE -bench=GraphParallel -cpu=1,4,8 .
func BenchmarkGraphParallel(b *testing.B) {
	day := temporal.MustParse("2015-02-02", temporal.Day)
	makeKeys := func(n int) []cell.Key {
		keys := make([]cell.Key, 0, n)
		for i := 0; len(keys) < n; i++ {
			gh := string([]byte{
				geohash.Base32[i%32],
				geohash.Base32[(i/32)%32],
				geohash.Base32[(i/1024)%32],
			})
			keys = append(keys, cell.Key{Geohash: geohash.MustPack(gh), Time: day})
		}
		return keys
	}
	keys := makeKeys(4096)
	warm := query.NewResult()
	for i, k := range keys {
		s := cell.Summary{}
		s.Observe(cell.Temperature, float64(i))
		warm.Add(k, s)
	}

	for _, stripes := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			cfg := istash.DefaultConfig()
			cfg.Capacity = 64_000
			cfg.Stripes = stripes
			cfg.Disperse = false // isolate store contention from neighbor algebra
			g := istash.NewGraph(cfg)
			g.Put(warm)

			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					base := rng.Intn(len(keys) - 64)
					batch := keys[base : base+64]
					if rng.Intn(8) == 0 {
						// Occasional population write: re-insert a slice of the
						// batch so writers contend with readers, as on a
						// serving node.
						res := query.NewResult()
						for j, k := range batch[:16] {
							s := cell.Summary{}
							s.Observe(cell.Temperature, float64(j))
							res.Add(k, s)
						}
						g.Put(res)
					} else {
						g.GetBatch(batch)
					}
				}
			})
		})
	}
}
