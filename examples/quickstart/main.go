// Quickstart: assemble a simulated STASH deployment, run one aggregation
// query cold and once more warm, and show the cache doing its job.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"stash"
)

func main() {
	// A 8-node cluster over the synthetic NAM-like dataset, with real
	// (sleeping) simulated I/O costs so latencies are observable.
	cfg := stash.DefaultConfig()
	cfg.Nodes = 8
	cfg.Sleeper = stash.NewRealSleeper()
	sys, err := stash.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	// A state-sized query over the south-central US, one day of data,
	// binned at geohash precision 4 by day — the paper's canonical shape.
	q := stash.Query{
		Box:         stash.Box{MinLat: 33, MaxLat: 37, MinLon: -103, MaxLon: -95},
		Time:        stash.DayRange(2015, 2, 2),
		SpatialRes:  4,
		TemporalRes: stash.Day,
	}
	if err := q.Validate(); err != nil {
		log.Fatal(err)
	}

	client := sys.Client()

	res, cold, err := client.TimedQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold query: %d cells in %v\n", res.Len(), cold.Round(time.Microsecond))

	// Give the background population a moment, then repeat: the footprint
	// is now served from the in-memory STASH graph.
	time.Sleep(100 * time.Millisecond)
	res, warm, err := client.TimedQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm query: %d cells in %v (%.1fx faster)\n",
		res.Len(), warm.Round(time.Microsecond), float64(cold)/float64(warm))

	// Inspect one cell's temperature aggregate.
	for key, sum := range res.Cells {
		st, _ := sum.Stat("temperature")
		fmt.Printf("cell %v @ %v: n=%d mean=%.1f°C min=%.1f max=%.1f\n",
			key.Geohash, key.Time, st.Count, st.Mean(), st.Min, st.Max)
		break
	}

	stats := sys.TotalStats()
	fmt.Printf("cluster: %d cache hits, %d misses, %d blocks read from disk\n",
		stats.CacheHits, stats.CacheMisses, stats.BlocksRead)
}
