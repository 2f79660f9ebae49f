package replication

import (
	"math/rand"
	"testing"
	"time"

	"stash/internal/cell"
	"stash/internal/dht"
	"stash/internal/geohash"
	"stash/internal/temporal"
)

var day = temporal.MustParse("2015-02-02", temporal.Day)

func k(gh string) cell.Key { return cell.Key{Geohash: geohash.MustPack(gh), Time: day} }

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config should be disabled")
	}
	if !DefaultConfig().Enabled() {
		t.Error("default config should be enabled")
	}
	if (Config{QueueThreshold: 10}).Enabled() {
		t.Error("config without cell budget should be disabled")
	}
}

func TestCandidateHelpersExcludesSelf(t *testing.T) {
	ring, _ := dht.NewRing(32, 2)
	self := ring.Owner(geohash.MustPack("9q8"))
	rng := rand.New(rand.NewSource(1))
	cands := CandidateHelpers(geohash.MustPack("9q8"), ring, self, DefaultConfig(), rng)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c == self {
			t.Error("self returned as candidate")
		}
	}
}

func TestCandidateHelpersFirstIsAntipodeOwner(t *testing.T) {
	ring, _ := dht.NewRing(64, 2)
	root := geohash.MustPack("9q8")
	anti := root.Antipode()
	antiOwner := ring.Owner(anti)
	self := ring.Owner(root)
	if antiOwner == self {
		t.Skip("antipode maps to self on this ring; geometry makes the test vacuous")
	}
	rng := rand.New(rand.NewSource(1))
	cands := CandidateHelpers(root, ring, self, DefaultConfig(), rng)
	if len(cands) == 0 || cands[0] != antiOwner {
		t.Errorf("first candidate = %v, want antipode owner %v", cands, antiOwner)
	}
}

func TestCandidateHelpersDeduplicated(t *testing.T) {
	ring, _ := dht.NewRing(16, 2)
	rng := rand.New(rand.NewSource(7))
	cands := CandidateHelpers(geohash.MustPack("u4p"), ring, ring.Owner(geohash.MustPack("u4p")), DefaultConfig(), rng)
	seen := map[dht.NodeID]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %v", c)
		}
		seen[c] = true
	}
	if len(cands) > DefaultConfig().MaxCandidates {
		t.Errorf("candidates %d exceed max %d", len(cands), DefaultConfig().MaxCandidates)
	}
}

func TestCandidateHelpersInvalidRoot(t *testing.T) {
	ring, _ := dht.NewRing(4, 2)
	rng := rand.New(rand.NewSource(1))
	if got := CandidateHelpers(geohash.Hash(0), ring, 0, DefaultConfig(), rng); got != nil {
		t.Errorf("invalid root yielded candidates: %v", got)
	}
}

func TestCandidateHelpersTinyCluster(t *testing.T) {
	// On a 2-node ring every candidate must be the one other node.
	ring, _ := dht.NewRing(2, 2)
	self := dht.NodeID(0)
	rng := rand.New(rand.NewSource(3))
	cands := CandidateHelpers(geohash.MustPack("9q8"), ring, self, DefaultConfig(), rng)
	for _, c := range cands {
		if c != dht.NodeID(1) {
			t.Errorf("unexpected candidate %v", c)
		}
	}
	if len(cands) > 1 {
		t.Errorf("2-node ring should yield at most 1 candidate, got %d", len(cands))
	}
}

func TestRouteCovers(t *testing.T) {
	r := Route{Cells: map[cell.Key]bool{k("9q1"): true, k("9q2"): true}}
	if !r.Covers([]cell.Key{k("9q1")}) {
		t.Error("subset not covered")
	}
	if !r.Covers([]cell.Key{k("9q1"), k("9q2")}) {
		t.Error("exact set not covered")
	}
	if r.Covers([]cell.Key{k("9q1"), k("9q3")}) {
		t.Error("superset reported covered")
	}
	if !r.Covers(nil) {
		t.Error("empty request should be trivially covered")
	}
}

func TestTableAddLookup(t *testing.T) {
	tb := NewTable()
	now := time.Now()
	keys := []cell.Key{k("9q1"), k("9q2"), k("9q3")}
	tb.Add(k("9q"), dht.NodeID(5), keys, now)

	helper, ok := tb.Lookup(keys[:2])
	if !ok || helper != dht.NodeID(5) {
		t.Errorf("Lookup = %v,%v", helper, ok)
	}
	if _, ok := tb.Lookup([]cell.Key{k("u41")}); ok {
		t.Error("uncovered keys matched a route")
	}
	if _, ok := tb.Lookup(nil); ok {
		t.Error("empty key set should not reroute")
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestTablePartialCoverageRejected(t *testing.T) {
	// §VII-C: reroute only on FULL replication of the query region.
	tb := NewTable()
	tb.Add(k("9q"), dht.NodeID(2), []cell.Key{k("9q1")}, time.Now())
	if _, ok := tb.Lookup([]cell.Key{k("9q1"), k("9q2")}); ok {
		t.Error("partially covered request rerouted")
	}
}

func TestTablePurge(t *testing.T) {
	tb := NewTable()
	now := time.Now()
	tb.Add(k("9q"), 1, []cell.Key{k("9q1")}, now.Add(-time.Minute))
	tb.Add(k("u4"), 2, []cell.Key{k("u41")}, now)
	if n := tb.Purge(now, 30*time.Second); n != 1 {
		t.Errorf("purged %d, want 1", n)
	}
	if tb.Len() != 1 {
		t.Errorf("Len after purge = %d", tb.Len())
	}
	if _, ok := tb.Lookup([]cell.Key{k("9q1")}); ok {
		t.Error("stale route survived purge")
	}
	if _, ok := tb.Lookup([]cell.Key{k("u41")}); !ok {
		t.Error("fresh route purged")
	}
}

func TestTableRoots(t *testing.T) {
	tb := NewTable()
	tb.Add(k("9q"), 1, []cell.Key{k("9q1")}, time.Now())
	tb.Add(k("u4"), 2, []cell.Key{k("u41")}, time.Now())
	roots := tb.Roots()
	if len(roots) != 2 {
		t.Errorf("Roots = %v", roots)
	}
}

func TestTableOverwriteRoute(t *testing.T) {
	tb := NewTable()
	tb.Add(k("9q"), 1, []cell.Key{k("9q1")}, time.Now())
	tb.Add(k("9q"), 3, []cell.Key{k("9q1"), k("9q2")}, time.Now())
	helper, ok := tb.Lookup([]cell.Key{k("9q2")})
	if !ok || helper != dht.NodeID(3) {
		t.Errorf("route not overwritten: %v,%v", helper, ok)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d after overwrite", tb.Len())
	}
}

func TestTableLookupUnionAcrossCliques(t *testing.T) {
	// §VII-C coverage is per helper node: two cliques replicated to the
	// same helper jointly cover a query spanning both.
	tb := NewTable()
	now := time.Now()
	tb.Add(k("9q"), dht.NodeID(4), []cell.Key{k("9q1"), k("9q2")}, now)
	tb.Add(k("9r"), dht.NodeID(4), []cell.Key{k("9r1")}, now)
	helper, ok := tb.Lookup([]cell.Key{k("9q1"), k("9r1")})
	if !ok || helper != dht.NodeID(4) {
		t.Errorf("union coverage failed: %v,%v", helper, ok)
	}
	// Split across two different helpers must NOT reroute.
	tb2 := NewTable()
	tb2.Add(k("9q"), dht.NodeID(1), []cell.Key{k("9q1")}, now)
	tb2.Add(k("9r"), dht.NodeID(2), []cell.Key{k("9r1")}, now)
	if _, ok := tb2.Lookup([]cell.Key{k("9q1"), k("9r1")}); ok {
		t.Error("coverage split across helpers was rerouted")
	}
}

func TestTablePurgeMaintainsHelperUnion(t *testing.T) {
	tb := NewTable()
	now := time.Now()
	tb.Add(k("9q"), dht.NodeID(4), []cell.Key{k("9q1")}, now.Add(-time.Minute))
	tb.Add(k("9r"), dht.NodeID(4), []cell.Key{k("9r1")}, now)
	tb.Purge(now, 30*time.Second)
	if _, ok := tb.Lookup([]cell.Key{k("9q1")}); ok {
		t.Error("purged clique's cells still covered")
	}
	if _, ok := tb.Lookup([]cell.Key{k("9r1")}); !ok {
		t.Error("surviving clique lost coverage")
	}
}

func TestTableSharedCellRefcount(t *testing.T) {
	// Two cliques on one helper share a cell; dropping one clique must keep
	// the shared cell covered.
	tb := NewTable()
	now := time.Now()
	shared := k("9qs")
	tb.Add(k("9q"), dht.NodeID(4), []cell.Key{shared, k("9q1")}, now.Add(-time.Minute))
	tb.Add(k("9r"), dht.NodeID(4), []cell.Key{shared, k("9r1")}, now)
	tb.Purge(now, 30*time.Second)
	if _, ok := tb.Lookup([]cell.Key{shared}); !ok {
		t.Error("shared cell lost after dropping one of two cliques")
	}
}

func TestTableHelpers(t *testing.T) {
	tb := NewTable()
	now := time.Now()
	if hs := tb.Helpers(); len(hs) != 0 {
		t.Fatalf("empty table lists helpers %v", hs)
	}
	tb.Add(k("9q"), dht.NodeID(4), []cell.Key{k("9q1")}, now)
	tb.Add(k("9r"), dht.NodeID(2), []cell.Key{k("9r1")}, now)
	tb.Add(k("9s"), dht.NodeID(4), []cell.Key{k("9s1")}, now) // same helper twice
	hs := tb.Helpers()
	if len(hs) != 2 || hs[0] != dht.NodeID(2) || hs[1] != dht.NodeID(4) {
		t.Fatalf("Helpers() = %v, want [2 4] sorted and deduplicated", hs)
	}
	// Purging every route empties the helper list again.
	tb.Purge(now.Add(time.Hour), time.Minute)
	if hs := tb.Helpers(); len(hs) != 0 {
		t.Fatalf("helpers survive purge: %v", hs)
	}
}

func TestTablePurgeWhere(t *testing.T) {
	tb := NewTable()
	now := time.Now()
	tb.Add(k("9q"), 1, []cell.Key{k("9q1")}, now)
	tb.Add(k("u4"), 2, []cell.Key{k("u41")}, now)
	tb.Add(k("dr"), 2, []cell.Key{k("dr1")}, now)

	// Purge routes whose helper is node 2, as a membership change would
	// after that helper departs.
	if n := tb.PurgeWhere(func(r Route) bool { return r.Helper == 2 }); n != 2 {
		t.Fatalf("purged %d, want 2", n)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len after purge = %d", tb.Len())
	}
	if _, ok := tb.Lookup([]cell.Key{k("u41")}); ok {
		t.Error("purged helper still routed")
	}
	if _, ok := tb.Lookup([]cell.Key{k("9q1")}); !ok {
		t.Error("surviving route lost")
	}
	if helpers := tb.Helpers(); len(helpers) != 1 || helpers[0] != 1 {
		t.Errorf("Helpers after purge = %v", helpers)
	}
	if n := tb.PurgeWhere(func(Route) bool { return false }); n != 0 {
		t.Errorf("no-op purge removed %d", n)
	}
}
