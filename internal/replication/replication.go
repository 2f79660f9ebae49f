// Package replication implements STASH's autoscaling machinery for skewed
// workloads (paper §VII): hotspot detection thresholds, antipode-based
// helper-node selection, and the routing table through which a hotspotted
// node redirects queries to replicas of its hottest cliques.
//
// The clique-handoff protocol itself (distress request/ack, replication
// request/response) runs over the cluster transport in package cluster; this
// package holds the policy and bookkeeping, which are independently
// testable.
package replication

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"stash/internal/cell"
	"stash/internal/dht"
	"stash/internal/geohash"
)

// Config tunes hotspot handling. The zero value disables replication
// (threshold 0 is treated as "never hotspotted"); start from DefaultConfig.
type Config struct {
	// QueueThreshold is the pending-request queue length at which a node
	// deems itself hotspotted (paper §VII-B1; the evaluation used 100).
	QueueThreshold int
	// MaxReplicaCells is N: the cumulative cell budget of one handoff's
	// cliques (§VII-B2).
	MaxReplicaCells int
	// CliqueDepth is the configured clique depth (§VII-B2's example uses 2).
	CliqueDepth int
	// Cooldown is the minimum interval between successive handoffs on one
	// node (§VII-D).
	Cooldown time.Duration
	// RouteTTL is how long a routing-table entry lives before it is purged
	// as signifying "the retreat of hotspot" (§VII-D).
	RouteTTL time.Duration
	// GuestTTL is how long an unused guest clique survives on a helper
	// before being purged (§VII-D).
	GuestTTL time.Duration
	// RerouteProbability is the chance a query over a fully replicated
	// region is redirected to the helper (§VII-C: "probabilistically
	// rerouted"); the remainder stays local so the replica and the origin
	// share load.
	RerouteProbability float64
	// MaxCandidates bounds the helper search walk around the antipode
	// before giving up (§VII-B3).
	MaxCandidates int
}

// DefaultConfig mirrors the paper's evaluation settings where stated and
// sensible middles elsewhere.
func DefaultConfig() Config {
	return Config{
		QueueThreshold:     100,
		MaxReplicaCells:    4096,
		CliqueDepth:        2,
		Cooldown:           5 * time.Second,
		RouteTTL:           30 * time.Second,
		GuestTTL:           30 * time.Second,
		RerouteProbability: 0.7,
		MaxCandidates:      8,
	}
}

// Enabled reports whether the configuration can ever trigger a handoff.
func (c Config) Enabled() bool { return c.QueueThreshold > 0 && c.MaxReplicaCells > 0 }

// CandidateHelpers returns the ordered helper candidates for a clique rooted
// at the given geohash: first the antipode node (the owner of the region
// diametrically opposite the hotspot), then owners of random directions
// around the antipode geohash (§VII-B3's retry rule). The hotspotted node
// itself is excluded. Candidates are deduplicated; at most cfg.MaxCandidates
// are returned.
func CandidateHelpers(root geohash.Hash, ring *dht.Ring, self dht.NodeID, cfg Config, rng *rand.Rand) []dht.NodeID {
	max := cfg.MaxCandidates
	if max <= 0 {
		max = DefaultConfig().MaxCandidates
	}
	var out []dht.NodeID
	seen := map[dht.NodeID]bool{self: true}
	add := func(gh geohash.Hash) {
		if len(out) >= max {
			return
		}
		id := ring.Owner(gh)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}

	if !root.Valid() {
		return nil
	}
	anti := root.Antipode()
	add(anti)

	// Walk outward from the antipode in random directions until enough
	// distinct candidates are found or the neighborhood is exhausted.
	frontier := anti
	for attempts := 0; len(out) < max && attempts < 64; attempts++ {
		d := geohash.Direction(rng.Intn(8))
		next, ok := frontier.Neighbor(d)
		if !ok {
			continue
		}
		frontier = next
		add(frontier)
	}
	return out
}

// Route is one routing-table entry: a replicated clique and where its
// replica lives (paper §VII-B5).
type Route struct {
	Root    cell.Key
	Helper  dht.NodeID
	Cells   map[cell.Key]bool
	Created time.Time
}

// Covers reports whether the replica holds every one of the given keys.
func (r Route) Covers(keys []cell.Key) bool {
	for _, k := range keys {
		if !r.Cells[k] {
			return false
		}
	}
	return true
}

// Table is a hotspotted node's routing table of replicated cliques. It is
// safe for concurrent use.
type Table struct {
	mu     sync.Mutex
	routes map[cell.Key]Route
	// helperCells is the per-helper union of replicated cells with
	// refcounts, so Lookup can test full coverage against everything a
	// helper holds rather than one clique at a time.
	helperCells map[dht.NodeID]map[cell.Key]int
}

// NewTable returns an empty routing table.
func NewTable() *Table {
	return &Table{
		routes:      map[cell.Key]Route{},
		helperCells: map[dht.NodeID]map[cell.Key]int{},
	}
}

// Add records a successfully replicated clique.
func (t *Table) Add(root cell.Key, helper dht.NodeID, keys []cell.Key, now time.Time) {
	cells := make(map[cell.Key]bool, len(keys))
	for _, k := range keys {
		cells[k] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.routes[root]; ok {
		t.dropFromHelperLocked(old)
	}
	t.routes[root] = Route{Root: root, Helper: helper, Cells: cells, Created: now}
	hc := t.helperCells[helper]
	if hc == nil {
		hc = map[cell.Key]int{}
		t.helperCells[helper] = hc
	}
	for _, k := range keys {
		hc[k]++
	}
}

func (t *Table) dropFromHelperLocked(r Route) {
	hc := t.helperCells[r.Helper]
	for k := range r.Cells {
		if hc[k] <= 1 {
			delete(hc, k)
		} else {
			hc[k]--
		}
	}
	if len(hc) == 0 {
		delete(t.helperCells, r.Helper)
	}
}

// Len returns the number of live routes.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.routes)
}

// Lookup finds a helper whose replicas, taken together, fully cover the
// requested keys (paper §VII-C: reroute only when the query region is fully
// replicated at a helper node). ok is false when no helper covers the
// request.
func (t *Table) Lookup(keys []cell.Key) (dht.NodeID, bool) {
	if len(keys) == 0 {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
helpers:
	for helper, hc := range t.helperCells {
		for _, k := range keys {
			if hc[k] == 0 {
				continue helpers
			}
		}
		return helper, true
	}
	return 0, false
}

// Helpers lists the distinct helper nodes currently holding replicas for
// this table's routes, in ascending order. The coordinator's failover path
// uses it to find replicas of a failed owner's cliques: even when the owner
// itself is unreachable, its hottest data may survive on helpers selected
// around the antipode.
func (t *Table) Helpers() []dht.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]dht.NodeID, 0, len(t.helperCells))
	for h := range t.helperCells {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Purge drops routes older than ttl, returning how many were removed.
func (t *Table) Purge(now time.Time, ttl time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for root, r := range t.routes {
		if now.Sub(r.Created) > ttl {
			t.dropFromHelperLocked(r)
			delete(t.routes, root)
			n++
		}
	}
	return n
}

// PurgeWhere drops every route the predicate matches (with its helper-cell
// accounting), returning how many were removed. The membership controller
// uses it on epoch changes: a route whose root partition moved points redirect
// traffic at a helper chosen for an owner that no longer serves the clique,
// and a route whose helper departed points at nobody.
func (t *Table) PurgeWhere(pred func(Route) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for root, r := range t.routes {
		if pred(r) {
			t.dropFromHelperLocked(r)
			delete(t.routes, root)
			n++
		}
	}
	return n
}

// Roots lists the roots of all live routes.
func (t *Table) Roots() []cell.Key {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]cell.Key, 0, len(t.routes))
	for root := range t.routes {
		out = append(out, root)
	}
	return out
}
