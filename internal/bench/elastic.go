package bench

import (
	"fmt"
	"time"

	"stash/internal/cell"
	"stash/internal/cluster"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/replication"
	"stash/internal/workload"
)

func init() {
	registry["ext-elastic"] = ExtElastic
}

// elasticOutcome carries the structured numbers behind the ext-elastic
// report so tests can assert the shape (warm handoff beats cold join, the
// post-join dip recovers) instead of re-parsing table rows.
type elasticOutcome struct {
	steadyWarm    int64 // blocks read per steady-state pass, warm-handoff run
	dipWarm       int64 // blocks read on the first pass after a warm join
	recoveredWarm int64 // blocks read once population caught back up
	steadyCold    int64
	dipCold       int64
	recoveredCold int64
	movedKeys     int           // footprint keys whose owner changed at the join
	cellsMigrated int64         // cells shipped by the warm handoff
	bytesMigrated int64         // wire bytes shipped by the warm handoff
	handoffWarm   time.Duration // Join() wall time including migration
	handoffCold   time.Duration
}

// ExtElastic measures what elastic membership costs the cache: a node joins
// a warmed cluster mid-workload, taking ownership of a slice of the keyspace.
// With the warm handoff the departing owners ship their resident cells to
// the new node inside the epoch flip, so the first post-join pass barely
// touches disk. The "cold" arm runs the identical join but discards the
// shipped cells on arrival — the rehashed slice of the footprint must be
// repopulated from disk, which is exactly what a naive join (or a crashed
// transfer) costs.
func ExtElastic(opts Options) (Report, error) {
	rep, _, err := runExtElastic(opts)
	return rep, err
}

func runExtElastic(opts Options) (Report, elasticOutcome, error) {
	rep := Report{
		ID:      "ext-elastic",
		Title:   "online node join: warm-cell handoff vs cold join on a warmed cluster",
		Columns: []string{"mode", "phase", "epoch", "nodes", "makespan_ms", "blocks_read", "cells_migrated", "handoff_ms"},
	}
	var out elasticOutcome

	nSessions := opts.pick(4, 10)
	steps := opts.pick(5, 10)
	// Distinct pan paths per session, spreading the footprint across many
	// partitions so the rehashed slice at the join overlaps it. Both arms
	// replay the exact same workload under the same seed.
	sessions := make([][]query.Query, nSessions)
	var footprint []cell.Key
	for i := range sessions {
		q := workload.RandomQuery(newRng(opts, 31+int64(i)), workload.State)
		path := make([]query.Query, 0, steps)
		for s := 0; s < steps; s++ {
			path = append(path, q)
			if keys, err := q.Footprint(); err == nil {
				footprint = append(footprint, keys...)
			}
			q = q.Pan(geohash.East, 0.25)
		}
		sessions[i] = path
	}
	settleAll := func(c *cluster.Cluster) {
		for _, sess := range sessions {
			for _, q := range sess {
				settle(c, q)
			}
		}
	}

	for _, mode := range []string{"cold", "warm"} {
		c, err := buildCluster(opts, stashSystem, replication.Config{}, nil)
		if err != nil {
			return rep, out, err
		}
		pass := func(phase string) (time.Duration, int64, error) {
			before := c.TotalStats().BlocksRead
			mk, err := runSessions(c, sessions, nSessions)
			if err != nil {
				return 0, 0, err
			}
			blocks := c.TotalStats().BlocksRead - before
			rep.AddRow(mode, phase, fmt.Sprintf("%d", c.Epoch()),
				fmt.Sprintf("%d", c.Ring().Size()), ms(mk),
				fmt.Sprintf("%d", blocks), "-", "-")
			return mk, blocks, nil
		}

		// Populate, then measure the warmed steady state.
		if _, _, err := pass("populate"); err != nil {
			c.Stop()
			return rep, out, err
		}
		settleAll(c)
		_, steady, err := pass("steady")
		if err != nil {
			c.Stop()
			return rep, out, err
		}

		// The join. Both arms run the full three-phase handoff; the cold arm
		// then discards the shipped cells on the new owner, leaving exactly
		// the state a transfer-free join would: old owners already extracted,
		// new owner empty.
		oldRing := c.Ring()
		t0 := time.Now()
		joined, err := c.Join()
		handoff := time.Since(t0)
		if err != nil {
			c.Stop()
			return rep, out, err
		}
		st := c.RebalanceStatus()
		newRing := c.Ring()
		moved := 0
		for _, k := range footprint {
			if oldRing.Owner(k.Geohash) != newRing.Owner(k.Geohash) {
				moved++
			}
		}
		if mode == "cold" {
			parts := make(map[geohash.Hash]bool)
			for _, p := range newRing.PartitionsOf(joined) {
				parts[p] = true
			}
			g := c.Node(joined).Graph()
			g.ExtractPartitions(newRing.PrefixLen(), parts) // discard: the cells never arrived
			out.handoffCold = handoff
		} else {
			out.handoffWarm = handoff
			out.cellsMigrated = st.CellsMigrated
			out.bytesMigrated = st.BytesMigrated
			out.movedKeys = moved
		}
		rep.AddRow(mode, "join", fmt.Sprintf("%d", c.Epoch()),
			fmt.Sprintf("%d", c.Ring().Size()), "-", "-",
			fmt.Sprintf("%d", st.CellsMigrated), ms(handoff))

		// First pass after the flip is the dip; settle and re-run for the
		// recovered steady state.
		_, dip, err := pass("post-join")
		if err != nil {
			c.Stop()
			return rep, out, err
		}
		settleAll(c)
		_, recovered, err := pass("recovered")
		c.Stop()
		if err != nil {
			return rep, out, err
		}

		if mode == "cold" {
			out.steadyCold, out.dipCold, out.recoveredCold = steady, dip, recovered
		} else {
			out.steadyWarm, out.dipWarm, out.recoveredWarm = steady, dip, recovered
		}
	}

	rep.AddNote("join rehashed %d of %d footprint keys to new owners", out.movedKeys, len(footprint))
	rep.AddNote("warm handoff shipped %d cells (%d wire bytes) inside the epoch flip (%s ms)",
		out.cellsMigrated, out.bytesMigrated, ms(out.handoffWarm))
	rep.AddNote("first post-join pass: %d blocks warm vs %d blocks cold — the handoff keeps the moved slice cached",
		out.dipWarm, out.dipCold)
	rep.AddNote("cold arm recovers by re-reading disk: steady %d -> dip %d -> recovered %d blocks/pass",
		out.steadyCold, out.dipCold, out.recoveredCold)
	return rep, out, nil
}
