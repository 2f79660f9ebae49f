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
	"stash/internal/dht"
	"stash/internal/query"
	"stash/internal/temporal"
)

// mustQuery runs a query and fails the test on error or empty result.
func mustQuery(t *testing.T, c *Cluster, q query.Query) query.Result {
	t.Helper()
	res, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("empty result")
	}
	return res
}

func sameResult(t *testing.T, got, want query.Result, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: cells %d != %d", label, got.Len(), want.Len())
	}
	for k, s := range want.Cells {
		gs, ok := got.Cells[k]
		if !ok {
			t.Fatalf("%s: missing cell %v", label, k)
		}
		for attr, st := range s.Stats {
			g := gs.Stats[attr]
			if g.Count != st.Count {
				t.Fatalf("%s: cell %v attr %d: got count=%d, want count=%d",
					label, k, attr, g.Count, st.Count)
			}
		}
	}
}

func TestJoinAdvancesEpochAndMembership(t *testing.T) {
	c := newTestCluster(t, nil)
	e0 := c.Epoch()
	if e0 == 0 {
		t.Fatal("fresh cluster reports epoch 0 (reserved for no-view)")
	}
	id, err := c.Join()
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != e0+1 {
		t.Fatalf("epoch after join: %d, want %d", c.Epoch(), e0+1)
	}
	if !c.View().Contains(id) {
		t.Fatalf("view does not contain joined node %v", id)
	}
	if c.node(id) == nil {
		t.Fatalf("member table does not contain joined node %v", id)
	}
	st := c.RebalanceStatus()
	if st.Epoch != e0+1 || st.Changes != 1 || st.Active || st.Phase != "idle" {
		t.Fatalf("status after join: %+v", st)
	}
	if len(st.Members) != 5 {
		t.Fatalf("members after join: %d, want 5", len(st.Members))
	}
}

func TestLeaveAdvancesEpochAndRetiresNode(t *testing.T) {
	c := newTestCluster(t, nil)
	e0 := c.Epoch()
	victim := c.Nodes()[0].ID()
	if err := c.Leave(victim); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != e0+1 {
		t.Fatalf("epoch after leave: %d, want %d", c.Epoch(), e0+1)
	}
	if c.View().Contains(victim) {
		t.Fatal("departed node still in view")
	}
	if c.node(victim) != nil {
		t.Fatal("departed node still in member table")
	}
	if err := c.Leave(victim); err == nil {
		t.Fatal("double leave accepted")
	}
}

func TestLeaveLastNodeRejected(t *testing.T) {
	c := newTestCluster(t, func(cfg *Config) { cfg.Nodes = 2 })
	if err := c.Leave(c.Nodes()[0].ID()); err != nil {
		t.Fatal(err)
	}
	last := c.Nodes()[0].ID()
	if err := c.Leave(last); err == nil {
		t.Fatal("removing the last node was accepted")
	}
}

func TestJoinQueryCorrectness(t *testing.T) {
	// Aggregates must stay byte-identical to the cache-less basic system
	// across a join: before, warm; after, both the re-routed cold paths and
	// the migrated warm cells.
	basic := newTestCluster(t, func(cfg *Config) { cfg.Stash = nil })
	c := newTestCluster(t, nil)
	q := countyQuery()

	want := mustQuery(t, basic, q)
	sameResult(t, mustQuery(t, c, q), want, "pre-join cold")
	sameResult(t, mustQuery(t, c, q), want, "pre-join warm")

	if _, err := c.Join(); err != nil {
		t.Fatal(err)
	}
	sameResult(t, mustQuery(t, c, q), want, "post-join")
	sameResult(t, mustQuery(t, c, q), want, "post-join warm")
}

func TestLeaveQueryCorrectness(t *testing.T) {
	basic := newTestCluster(t, func(cfg *Config) { cfg.Stash = nil })
	c := newTestCluster(t, nil)
	q := countyQuery()

	want := mustQuery(t, basic, q)
	sameResult(t, mustQuery(t, c, q), want, "pre-leave")

	if err := c.Leave(c.Nodes()[0].ID()); err != nil {
		t.Fatal(err)
	}
	sameResult(t, mustQuery(t, c, q), want, "post-leave")
	sameResult(t, mustQuery(t, c, q), want, "post-leave warm")
}

func TestJoinMigratesResidentCells(t *testing.T) {
	// Seed one fine cell into every partition's owner, then join: the moved
	// partitions' cells must be shipped, and every seeded cell must be
	// resident on its post-join owner — none lost, none left behind.
	c := newTestCluster(t, nil)
	ring := c.Ring()
	day := temporal.MustParse("2015-02-02", temporal.Day)
	seed := map[dht.NodeID]query.Result{}
	var all []cell.Key
	for _, part := range ring.Partitions() {
		k, err := cell.KeyOf(part.Child(0).Child(0), day)
		if err != nil {
			t.Fatal(err)
		}
		s := cell.Summary{}
		s.Observe(cell.Temperature, 1)
		owner := ring.Owner(k.Geohash)
		r, ok := seed[owner]
		if !ok {
			r = query.NewResult()
			seed[owner] = r
		}
		r.Add(k, s)
		all = append(all, k)
	}
	for id, r := range seed {
		c.node(id).Graph().Put(r)
	}

	if _, err := c.Join(); err != nil {
		t.Fatal(err)
	}
	st := c.RebalanceStatus()
	if st.MovedPartitions == 0 {
		t.Fatal("join moved no partitions")
	}
	if st.CellsMigrated == 0 {
		t.Fatal("join migrated no cells despite resident cells in every partition")
	}
	if st.BytesMigrated == 0 {
		t.Fatal("cells migrated but no bytes accounted")
	}

	newRing := c.Ring()
	byOwner := map[dht.NodeID][]cell.Key{}
	for _, k := range all {
		id := newRing.Owner(k.Geohash)
		byOwner[id] = append(byOwner[id], k)
	}
	for id, keys := range byOwner {
		n := c.node(id)
		if n == nil {
			t.Fatalf("no node for owner %v", id)
		}
		_, missing := n.Graph().GetBatch(keys)
		if len(missing) > 0 {
			t.Fatalf("node %v missing %d of %d cells after handoff (e.g. %v)",
				id, len(missing), len(keys), missing[0])
		}
	}
}

func TestJoinKeepsQueryFootprintWarm(t *testing.T) {
	// After the cache fully covers a query's footprint, a join must not
	// force the footprint back to disk: moved cells arrive warm on the new
	// owner, so the repeat query reads zero blocks.
	c := newTestCluster(t, nil)
	q := countyQuery()
	keys, _ := q.Footprint()
	mustQuery(t, c, q)
	deadline := time.Now().Add(5 * time.Second)
	for {
		complete := true
		for _, n := range c.Nodes() {
			owned := c.Client().groupByOwner(c.Ring(), keys)[n.ID()]
			if n.Graph().PLM().Completeness(owned) < 1 {
				complete = false
				break
			}
		}
		if complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cache never fully covered the query footprint")
		}
		mustQuery(t, c, q)
		time.Sleep(time.Millisecond)
	}

	if _, err := c.Join(); err != nil {
		t.Fatal(err)
	}
	base := c.TotalStats().BlocksRead
	mustQuery(t, c, q)
	if extra := c.TotalStats().BlocksRead - base; extra != 0 {
		t.Fatalf("post-join repeat query read %d blocks; handoff should have kept it warm", extra)
	}
}

func TestStaleEpochRequestBounced(t *testing.T) {
	c := newTestCluster(t, nil)
	n := c.Nodes()[0]
	keys, _ := countyQuery().Footprint()
	ctx := withEpoch(context.Background(), c.Epoch()+7)
	_, err := n.Submit(ctx, keys[:1])
	if err == nil {
		t.Fatal("stale-epoch request served")
	}
	var no ErrNotOwner
	if !errors.As(err, &no) {
		t.Fatalf("stale-epoch request failed with %v, want ErrNotOwner", err)
	}
	if no.RequestEpoch != c.Epoch()+7 || no.Epoch != c.Epoch() {
		t.Fatalf("ErrNotOwner epochs: %+v", no)
	}
	if !Retryable(err) {
		t.Fatal("ErrNotOwner not retryable")
	}
}

func TestClientRetriesAcrossFlip(t *testing.T) {
	// A client planning on view E must transparently re-plan when the
	// cluster has already flipped to E+1 by the time requests land.
	c := newTestCluster(t, nil)
	q := countyQuery()
	want := mustQuery(t, c, q)

	retries0 := mEpochRetries.Value()
	if _, err := c.Join(); err != nil {
		t.Fatal(err)
	}
	// Hand-build a stale plan: group by the *old* routing but let
	// FetchContext discover the bounce and re-plan on the fresh view.
	keys, _ := q.Footprint()
	ctx := withEpoch(context.Background(), c.Epoch()-1)
	n := c.Nodes()[0]
	if _, err := n.Submit(ctx, keys[:1]); err == nil {
		t.Fatal("stale submit unexpectedly served")
	}
	got, err := c.Client().Fetch(keys)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want, "post-flip fetch")
	_ = retries0
}

func TestQueriesDuringChurn(t *testing.T) {
	// Queries racing joins and leaves must never return a wrong answer:
	// every complete result matches the oracle, and failures are limited to
	// honest coverage errors.
	basic := newTestCluster(t, func(cfg *Config) { cfg.Stash = nil })
	c := newTestCluster(t, nil)
	q := countyQuery()
	want := mustQuery(t, basic, q)
	mustQuery(t, c, q)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				// Pace the loop: on a single-P runtime a hot query loop's
				// request/reply wake chain can keep the scheduler's runnext
				// slot occupied indefinitely, starving the runnable worker
				// goroutines a concurrent Leave is waiting to drain.
				time.Sleep(time.Millisecond)
				res, err := c.Client().Query(q)
				if err != nil {
					continue // honest refusal under churn; never wrong
				}
				if res.Coverage.Complete() {
					if res.Len() != want.Len() {
						errCh <- fmt.Errorf("complete result has %d cells, want %d", res.Len(), want.Len())
						return
					}
					for k, s := range want.Cells {
						g, ok := res.Cells[k]
						if !ok || g.Stats[cell.Temperature].Count != s.Stats[cell.Temperature].Count {
							errCh <- fmt.Errorf("complete result diverges at %v", k)
							return
						}
					}
				}
			}
		}()
	}

	var joined []dht.NodeID
	for i := 0; i < 3; i++ {
		id, err := c.Join()
		if err != nil {
			t.Fatal(err)
		}
		joined = append(joined, id)
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range joined[:2] {
		if err := c.Leave(id); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// After the churn settles, the system must converge back to exact.
	sameResult(t, mustQuery(t, c, q), want, "post-churn")
}

func TestJoinAfterStopRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.PointsPerBlock = 64
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Stop()
	if _, err := c.Join(); !errors.Is(err, ErrStopped) {
		t.Fatalf("join after stop: %v, want ErrStopped", err)
	}
	if err := c.Leave(1); !errors.Is(err, ErrStopped) {
		t.Fatalf("leave after stop: %v, want ErrStopped", err)
	}
}
