package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stash/internal/cell"
	"stash/internal/query"
)

// ownerShare picks the node owning the largest share of the county query's
// footprint, plus that share's keys — a realistic single-owner batch.
func ownerShare(t *testing.T, c *Cluster) (*Node, []cell.Key) {
	t.Helper()
	keys, err := countyQuery().Footprint()
	if err != nil {
		t.Fatal(err)
	}
	var best *Node
	var bestKeys []cell.Key
	for id, ks := range c.Client().GroupByOwner(keys) {
		if len(ks) > len(bestKeys) {
			best, bestKeys = c.node(id), ks
		}
	}
	if best == nil {
		t.Fatal("no owner share")
	}
	return best, bestKeys
}

func TestCoalesceWindowZeroPreservesDirectPath(t *testing.T) {
	c := newTestCluster(t, nil)
	if c.coalescer != nil {
		t.Fatal("zero CoalesceWindow must not construct a coalescer")
	}
	// And the default config leaves serve-side singleflight off too.
	if c.cfg.ServeSingleflight {
		t.Fatal("ServeSingleflight on by default")
	}
}

func TestCoalesceMergesConcurrentFetches(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.CoalesceWindow = 2 * time.Millisecond })
	if c.coalescer == nil {
		t.Fatal("coalescer not constructed")
	}
	n, keys := ownerShare(t, c)
	want, err := n.Submit(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 8
	results := make([]query.Result, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.coalescer.fetch(context.Background(), n, keys)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if results[i].Len() != want.Len() {
			t.Errorf("waiter %d: %d cells, want %d", i, results[i].Len(), want.Len())
		}
		if got, exp := results[i].TotalCount("temperature"), want.TotalCount("temperature"); got != exp {
			t.Errorf("waiter %d: count %d, want %d", i, got, exp)
		}
	}
	c.coalescer.mu.Lock()
	pending := len(c.coalescer.pending)
	c.coalescer.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d batches leaked in the pending table", pending)
	}
}

func TestCoalesceDemuxProjectsEachCallersKeys(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.CoalesceWindow = 5 * time.Millisecond })
	n, keys := ownerShare(t, c)
	if len(keys) < 2 {
		t.Skip("share too small to split")
	}
	sub := keys[:1]
	var wg sync.WaitGroup
	var full, part query.Result
	var fullErr, partErr error
	wg.Add(2)
	go func() { defer wg.Done(); full, fullErr = c.coalescer.fetch(context.Background(), n, keys) }()
	go func() { defer wg.Done(); part, partErr = c.coalescer.fetch(context.Background(), n, sub) }()
	wg.Wait()
	if fullErr != nil || partErr != nil {
		t.Fatalf("errs: %v / %v", fullErr, partErr)
	}
	if part.Len() > len(sub) {
		t.Errorf("subset caller got %d cells for %d keys: demux leaked other callers' cells", part.Len(), len(sub))
	}
	for k, s := range part.Cells {
		if k != sub[0] {
			t.Errorf("subset caller received foreign key %v", k)
		}
		if fs, ok := full.Cells[k]; ok && fs.Stats[cell.Temperature].Count != s.Stats[cell.Temperature].Count {
			t.Errorf("demuxed summary diverges from batch summary for %v", k)
		}
	}
}

// TestCoalesceCancelledWaiterDoesNotPoisonBatch is the cancellation-contract
// race test (run under -race in CI): a waiter whose context has already
// expired abandons the batch, while a healthy waiter in the same admission
// window still gets the full reply.
func TestCoalesceCancelledWaiterDoesNotPoisonBatch(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.CoalesceWindow = 20 * time.Millisecond })
	n, keys := ownerShare(t, c)

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	var abandonedErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, abandonedErr = c.coalescer.fetch(dead, n, keys)
	}()

	res, err := c.coalescer.fetch(context.Background(), n, keys)
	wg.Wait()
	if !errors.Is(abandonedErr, context.Canceled) {
		t.Errorf("abandoned waiter error = %v, want context.Canceled", abandonedErr)
	}
	if err != nil {
		t.Fatalf("healthy waiter poisoned by sibling cancellation: %v", err)
	}
	if res.Len() == 0 {
		t.Error("healthy waiter got an empty result")
	}
}

func TestCoalesceAllAbandonedBatchSkipsSubmit(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.CoalesceWindow = 5 * time.Millisecond })
	n, keys := ownerShare(t, c)
	before := n.processed.Load()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.coalescer.fetch(dead, n, keys); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Let the admission window flush the now-empty batch.
	time.Sleep(50 * time.Millisecond)
	if got := n.processed.Load(); got != before {
		t.Errorf("all-abandoned batch still billed the node: processed %d -> %d", before, got)
	}
	c.coalescer.mu.Lock()
	pending := len(c.coalescer.pending)
	c.coalescer.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d batches leaked in the pending table", pending)
	}
}

func TestCoalescedClientMatchesDirect(t *testing.T) {
	// End-to-end equivalence: the same query through a coalescing cluster
	// and a plain cluster (same seed, same dataset) must agree exactly.
	plain := newTestCluster(t, nil)
	co := newTestCluster(t, func(cfg *Config) {
		cfg.CoalesceWindow = DefaultCoalesceWindow
		cfg.ServeSingleflight = true
	})
	q := countyQuery()
	want, err := plain.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := co.Client().Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() || got.TotalCount("temperature") != want.TotalCount("temperature") {
			t.Fatalf("round %d: coalesced answer diverges: %d cells/%d obs, want %d/%d",
				round, got.Len(), got.TotalCount("temperature"), want.Len(), want.TotalCount("temperature"))
		}
	}
}

// TestSingleflightStormSharesDiskScans is the serve-side storm test (run at
// -cpu=1,4 under -race in CI). Two parts:
//
//  1. A deterministic sharing proof: the test claims a cold footprint's keys
//     itself, resolves them with exactly one round of disk scans, parks a
//     storm of waiters on the held entries, and only then publishes. Every
//     waiter must receive the leader's answer and the cluster must read ZERO
//     additional blocks — no scheduler luck involved, because entries stay
//     claimed until every waiter has attached.
//  2. A concurrent client storm with singleflight on vs off, asserting the
//     answers agree. (Block counts across the two runs are scheduler- and
//     population-timing-dependent, so they are logged, not asserted; the
//     deterministic part above carries the shared-scan guarantee.)
func TestSingleflightStormSharesDiskScans(t *testing.T) {
	const storm = 16

	// Part 1: deterministic shared scan.
	c := newTestCluster(t, func(cfg *Config) { cfg.ServeSingleflight = true })
	n, keys := ownerShare(t, c)
	base := c.TotalStats().BlocksRead

	owned, entries, waits := n.sfClaim(keys)
	if len(owned) != len(keys) || waits != nil {
		t.Fatalf("cold claim: owned=%d waits=%d, want %d/0", len(owned), len(waits), len(keys))
	}
	leader := query.NewResult()
	if err := n.resolveMisses(context.Background(), owned, &leader, c.Epoch()); err != nil {
		t.Fatal(err)
	}
	blocksOne := c.TotalStats().BlocksRead - base
	if blocksOne <= 0 {
		t.Fatalf("leader resolve read no blocks (%d); footprint not cold", blocksOne)
	}

	// Park the storm. Every waiter must attach before we publish — the
	// attached counter gates the publish, so entries are guaranteed to still
	// be in the in-flight table when each waiter claims.
	var attached atomic.Int64
	results := make([]query.Result, storm)
	errs := make([]error, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, _, w := n.sfClaim(keys)
			if len(o) != 0 || len(w) != len(keys) {
				errs[i] = fmt.Errorf("waiter %d claimed %d keys, waits %d; entries were released early", i, len(o), len(w))
				attached.Add(1)
				return
			}
			attached.Add(1)
			out := query.NewResult()
			fb, err := n.sfWait(context.Background(), w, &out)
			if err == nil && len(fb) > 0 {
				err = fmt.Errorf("waiter %d got %d fallback keys from a successful leader", i, len(fb))
			}
			results[i], errs[i] = out, err
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for attached.Load() != storm {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters attached", attached.Load(), storm)
		}
		time.Sleep(100 * time.Microsecond)
	}
	n.sfPublish(owned, entries, leader, nil)
	wg.Wait()
	for i := 0; i < storm; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Len() != leader.Len() || results[i].TotalCount("temperature") != leader.TotalCount("temperature") {
			t.Fatalf("waiter %d disagrees with leader: %d cells/%d obs, want %d/%d",
				i, results[i].Len(), results[i].TotalCount("temperature"), leader.Len(), leader.TotalCount("temperature"))
		}
	}
	if total := c.TotalStats().BlocksRead - base; total != blocksOne {
		t.Errorf("storm of %d waiters read extra disk blocks: %d total, want %d (one shared scan)", storm, total, blocksOne)
	}
	n.sfMu.Lock()
	leaked := len(n.sfInflight)
	n.sfMu.Unlock()
	if leaked != 0 {
		t.Errorf("singleflight table leaked %d entries", leaked)
	}

	// Part 2: concurrent client storm, answers must agree across sf on/off.
	run := func(sf bool) (int64, query.Result) {
		t.Helper()
		c := newTestCluster(t, func(cfg *Config) { cfg.ServeSingleflight = sf })
		q := countyQuery()
		results := make([]query.Result, storm)
		errs := make([]error, storm)
		var wg sync.WaitGroup
		for i := 0; i < storm; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = c.Client().Query(q)
			}(i)
		}
		wg.Wait()
		for i := range results {
			if errs[i] != nil {
				t.Fatalf("sf=%v query %d: %v", sf, i, errs[i])
			}
			if results[i].Len() != results[0].Len() || results[i].TotalCount("temperature") != results[0].TotalCount("temperature") {
				t.Fatalf("sf=%v query %d disagrees with query 0", sf, i)
			}
		}
		return c.TotalStats().BlocksRead, results[0]
	}
	blocksOff, resOff := run(false)
	blocksOn, resOn := run(true)
	if resOn.Len() != resOff.Len() || resOn.TotalCount("temperature") != resOff.TotalCount("temperature") {
		t.Errorf("singleflight changed the answer: %d cells/%d obs vs %d/%d",
			resOn.Len(), resOn.TotalCount("temperature"), resOff.Len(), resOff.TotalCount("temperature"))
	}
	t.Logf("storm of %d: blocks off=%d on=%d", storm, blocksOff, blocksOn)
}

func TestSingleflightClaimPublishWait(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.ServeSingleflight = true })
	n, keys := ownerShare(t, c)
	k := keys[0]

	owned, entries, waits := n.sfClaim([]cell.Key{k})
	if len(owned) != 1 || waits != nil {
		t.Fatalf("first claim: owned=%d waits=%d", len(owned), len(waits))
	}
	// A second request for the same key attaches as a waiter.
	owned2, _, waits2 := n.sfClaim([]cell.Key{k})
	if len(owned2) != 0 || len(waits2) != 1 {
		t.Fatalf("second claim: owned=%d waits=%d, want 0/1", len(owned2), len(waits2))
	}
	// Duplicate keys inside one request: own once, self-wait once — resolved
	// because handleLocal publishes before waiting.
	owned3, entries3, waits3 := n.sfClaim([]cell.Key{keys[1], keys[1]})
	if len(owned3) != 1 || len(waits3) != 1 {
		t.Fatalf("dup claim: owned=%d waits=%d, want 1/1", len(owned3), len(waits3))
	}
	n.sfPublish(owned3, entries3, query.NewResult(), nil)

	res := query.NewResult()
	s := cell.Summary{}
	s.Observe(cell.Temperature, 21.5)
	res.Add(k, s)
	n.sfPublish(owned, entries, res, nil)

	dst := query.NewResult()
	fallback, err := n.sfWait(context.Background(), waits2, &dst)
	if err != nil || len(fallback) != 0 {
		t.Fatalf("wait: fallback=%v err=%v", fallback, err)
	}
	if got := dst.Cells[k].Stats[cell.Temperature].Count; got != 1 {
		t.Errorf("waiter did not receive the published summary (count=%d)", got)
	}
	n.sfMu.Lock()
	left := len(n.sfInflight)
	n.sfMu.Unlock()
	if left != 0 {
		t.Errorf("%d entries leaked in the in-flight table", left)
	}
}

func TestSingleflightLeaderErrorFallsBack(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.ServeSingleflight = true })
	n, keys := ownerShare(t, c)
	k := keys[0]

	owned, entries, _ := n.sfClaim([]cell.Key{k})
	_, _, waits := n.sfClaim([]cell.Key{k})
	n.sfPublish(owned, entries, query.Result{}, errors.New("leader disk fault"))

	dst := query.NewResult()
	fallback, err := n.sfWait(context.Background(), waits, &dst)
	if err != nil {
		t.Fatalf("a leader error must not become the waiter's error: %v", err)
	}
	if len(fallback) != 1 || fallback[0] != k {
		t.Fatalf("fallback = %v, want [%v]", fallback, k)
	}
	if dst.Len() != 0 {
		t.Errorf("failed leader leaked cells into the waiter result")
	}
}

func TestGroupByOwnerDedupsRepeatedKeys(t *testing.T) {
	c := newTestCluster(t, nil)
	keys, err := countyQuery().Footprint()
	if err != nil {
		t.Fatal(err)
	}
	// Triple every key: the duplicated-footprint shape overlapping viewport
	// tiles produce.
	tripled := make([]cell.Key, 0, 3*len(keys))
	for i := 0; i < 3; i++ {
		tripled = append(tripled, keys...)
	}
	once := c.Client().GroupByOwner(keys)
	thrice := c.Client().GroupByOwner(tripled)
	for id, want := range once {
		if got := thrice[id]; len(got) != len(want) {
			t.Errorf("node %v: %d keys from tripled footprint, want %d (dedup failed)", id, len(got), len(want))
		}
	}
}

// TestCoalesceKeepsHierarchyLevelsApart is the regression test for a bug the
// differential harness (internal/oracle/difftest) caught: batches were keyed
// by owner node alone, so two concurrent callers at different zoom levels —
// one session panning at res 4 while another rolls up to res 3 — merged into
// a single mixed-resolution key set, which the storage scan underneath
// rightly rejects. Batches must be keyed by (node, level): both callers
// succeed, each with its own level's answer.
func TestCoalesceKeepsHierarchyLevelsApart(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.CoalesceWindow = 5 * time.Millisecond })
	n, fineKeys := ownerShare(t, c)

	// Keys for the same node one level up: roll the fine keys' geohashes up
	// and keep only those this node owns.
	coarseSet := map[cell.Key]struct{}{}
	for _, k := range fineKeys {
		parent, _ := k.Geohash.Parent()
		ck := cell.Key{Geohash: parent, Time: k.Time}
		coarseSet[ck] = struct{}{}
	}
	var coarseKeys []cell.Key
	for ck := range coarseSet {
		for id, ks := range c.Client().GroupByOwner([]cell.Key{ck}) {
			if id == n.id {
				coarseKeys = append(coarseKeys, ks...)
			}
		}
	}
	if len(coarseKeys) == 0 {
		t.Skip("no coarse key lands on the same owner at this cluster size")
	}

	wantFine, err := n.Submit(context.Background(), fineKeys)
	if err != nil {
		t.Fatal(err)
	}
	wantCoarse, err := n.Submit(context.Background(), coarseKeys)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var fineRes, coarseRes query.Result
	var fineErr, coarseErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		fineRes, fineErr = c.coalescer.fetch(context.Background(), n, fineKeys)
	}()
	go func() {
		defer wg.Done()
		coarseRes, coarseErr = c.coalescer.fetch(context.Background(), n, coarseKeys)
	}()
	wg.Wait()

	if fineErr != nil || coarseErr != nil {
		t.Fatalf("mixed-level coalesced fetches failed: fine=%v coarse=%v", fineErr, coarseErr)
	}
	if fineRes.Len() != wantFine.Len() || fineRes.TotalCount("temperature") != wantFine.TotalCount("temperature") {
		t.Errorf("fine level: %d cells / count %d, want %d / %d",
			fineRes.Len(), fineRes.TotalCount("temperature"), wantFine.Len(), wantFine.TotalCount("temperature"))
	}
	if coarseRes.Len() != wantCoarse.Len() || coarseRes.TotalCount("temperature") != wantCoarse.TotalCount("temperature") {
		t.Errorf("coarse level: %d cells / count %d, want %d / %d",
			coarseRes.Len(), coarseRes.TotalCount("temperature"), wantCoarse.Len(), wantCoarse.TotalCount("temperature"))
	}
}
