package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"stash/internal/cell"
	"stash/internal/dht"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/replication"
	"stash/internal/simnet"
	"stash/internal/temporal"
)

// fastResilience returns a resilient coordinator config scaled for tests:
// short deadlines so crashed-node waits cost milliseconds, not the
// production 150ms.
func fastResilience() ResilienceConfig {
	return ResilienceConfig{
		RequestTimeout:  25 * time.Millisecond,
		Retries:         1,
		RetryBackoff:    time.Millisecond,
		AllowPartial:    true,
		HelperReroute:   true,
		ScatterFallback: true,
	}
}

// regionQuery is a country-sized footprint (several dozen res-3 tiles)
// spanning many owners — big enough that losing one node leaves most of the
// map servable.
func regionQuery() query.Query {
	return query.Query{
		Box:         geohash.Box{MinLat: 30, MaxLat: 40, MinLon: -100, MaxLon: -90},
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  3,
		TemporalRes: temporal.Day,
	}
}

// checkCoverageArithmetic asserts the internal consistency of a coverage
// report: the key classes partition the request, shares never overshoot,
// and the result map never contains more keys than were requested.
func checkCoverageArithmetic(t *testing.T, res query.Result) {
	t.Helper()
	c := res.Coverage
	if c.Covered+c.Degraded+c.Missing() != c.Requested {
		t.Fatalf("coverage classes do not partition: %+v", c)
	}
	if c.SharesServed > c.SharesRequested {
		t.Fatalf("served %d shares of %d requested", c.SharesServed, c.SharesRequested)
	}
	if c.Ratio() < 0 || c.Ratio() > 1 {
		t.Fatalf("ratio %v out of range", c.Ratio())
	}
	if c.Requested > 0 && res.Len() > c.Requested {
		t.Fatalf("result has %d cells for %d requested keys", res.Len(), c.Requested)
	}
	if c.Complete() && c.Requested > 0 && c.Covered != c.Requested {
		t.Fatalf("Complete() with covered %d/%d", c.Covered, c.Requested)
	}
}

// TestChaosPanningWorkload is the headline chaos test: a panning workload
// runs against a cluster while a seeded kill/pause/drop/reject schedule
// plays out, and the system must neither deadlock nor panic; every answer's
// coverage report must be arithmetically consistent; and once every fault
// heals, queries must return complete coverage with the same aggregates as
// before the chaos.
func TestChaosPanningWorkload(t *testing.T) {
	const (
		seed  = 20250806
		nodes = 8
		steps = 10
	)
	fp := simnet.NewFaultPlan(seed)
	c := newTestCluster(t, func(cfg *Config) {
		cfg.Nodes = nodes
		cfg.Faults = fp
		cfg.Resilience = fastResilience()
	})

	q := countyQuery()
	baseline, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Coverage.Complete() {
		t.Fatalf("healthy cluster returned partial coverage: %v", baseline.Coverage)
	}

	schedule := simnet.GenerateFaultSchedule(seed, nodes, steps, 6)
	if len(schedule) == 0 {
		t.Fatal("empty fault schedule")
	}
	next := 0
	for step := 0; step < steps; step++ {
		for next < len(schedule) && schedule[next].Step <= step {
			fp.Apply(schedule[next])
			next++
		}
		var wg sync.WaitGroup
		results := make([]query.Result, 3)
		errs := make([]error, 3)
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				qq := q.Pan(geohash.Direction((step*3+w)%8), 0.05)
				results[w], errs[w] = c.Client().Query(qq)
			}(w)
		}
		wg.Wait()
		for w := 0; w < 3; w++ {
			switch {
			case errs[w] == nil:
				checkCoverageArithmetic(t, results[w])
			case errors.Is(errs[w], ErrNoCoverage):
				// Legal: every owner of that footprint was down.
			default:
				t.Fatalf("step %d worker %d: unexpected error %v", step, w, errs[w])
			}
		}
	}

	// Full recovery: heal everything; the same query must come back with
	// complete coverage and the pre-chaos aggregates (static dataset).
	fp.Reset()
	healed, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !healed.Coverage.Complete() {
		t.Fatalf("post-recovery coverage not complete: %v", healed.Coverage)
	}
	if healed.TotalCount("temperature") != baseline.TotalCount("temperature") {
		t.Fatalf("post-recovery counts differ: %d vs %d",
			healed.TotalCount("temperature"), baseline.TotalCount("temperature"))
	}
}

// TestPartialResultOneNodeCrashed is the acceptance scenario: with one of 16
// nodes crashed, a country-size query under the resilient coordinator
// returns a partial result with an accurate coverage report, within the
// deadline budget — never a hang, never an all-or-nothing error.
func TestPartialResultOneNodeCrashed(t *testing.T) {
	fp := simnet.NewFaultPlan(7)
	c := newTestCluster(t, func(cfg *Config) {
		cfg.Nodes = 16
		cfg.Faults = fp
		rc := fastResilience()
		rc.HelperReroute = false // no replicas in this scenario
		cfg.Resilience = rc
	})
	q := regionQuery()
	keys, err := q.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	byNode := c.Client().GroupByOwner(keys)
	if len(byNode) < 3 {
		t.Fatalf("query spans only %d owners; want several", len(byNode))
	}
	// Crash the owner with the most keys so the damage is visible.
	var victim dht.NodeID
	most := -1
	for id, ks := range byNode {
		if len(ks) > most {
			most, victim = len(ks), id
		}
	}
	fp.Crash(int(victim))

	start := time.Now()
	res, err := c.Client().Query(q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("expected graceful degradation, got %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("degraded query took %v; deadline machinery not bounding the wait", elapsed)
	}
	cov := res.Coverage
	checkCoverageArithmetic(t, res)
	if cov.Complete() {
		t.Fatalf("coverage claims complete with a crashed owner: %v", cov)
	}
	if cov.Missing()+cov.Degraded == 0 {
		t.Fatalf("no missing or degraded keys reported: %v", cov)
	}
	if _, ok := cov.NodeErrors[victim.String()]; !ok {
		t.Fatalf("NodeErrors %v does not name crashed %v", cov.NodeErrors, victim)
	}
	if res.Len() == 0 {
		t.Fatal("partial result carried no cells at all")
	}
	// The report must be accurate: exactly the victim's exclusive keys are
	// unaccounted for.
	exclusive := 0
	for _, k := range byNode[victim] {
		if k.Geohash.Len() >= c.Ring().PrefixLen() {
			exclusive++
		}
	}
	if cov.Missing() != exclusive {
		t.Fatalf("Missing() = %d, want %d (victim's exclusive keys)", cov.Missing(), exclusive)
	}

	// Heal and re-ask: full coverage again.
	fp.Recover(int(victim))
	res2, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Coverage.Complete() {
		t.Fatalf("coverage after heal: %v", res2.Coverage)
	}
}

// TestResilientHealthyMatchesFailFast pins the acceptance requirement that
// healthy-path behavior is unchanged by the resilience machinery: same
// cells, same aggregates, complete coverage.
func TestResilientHealthyMatchesFailFast(t *testing.T) {
	plain := newTestCluster(t, nil)
	resilient := newTestCluster(t, func(cfg *Config) {
		cfg.Resilience = DefaultResilienceConfig()
	})
	q := countyQuery()
	want, err := plain.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resilient.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.TotalCount("temperature") != want.TotalCount("temperature") {
		t.Fatalf("resilient healthy result differs: %d cells/%d obs vs %d/%d",
			got.Len(), got.TotalCount("temperature"), want.Len(), want.TotalCount("temperature"))
	}
	if !got.Coverage.Complete() || got.Coverage.Covered != got.Coverage.Requested {
		t.Fatalf("healthy resilient coverage: %v", got.Coverage)
	}
	if got.Coverage.Recovered != 0 {
		t.Fatalf("healthy query claims %d recovered shares", got.Coverage.Recovered)
	}
}

// TestStopRacesInflightSubmit floods the cluster and stops it mid-flight:
// every outstanding query must return (ErrStopped or a result, never a
// hang), and under -race the shutdown ordering must be clean — this is the
// regression test for the popWG.Wait-before-workers stop-order bug.
func TestStopRacesInflightSubmit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.PointsPerBlock = 64
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	q := countyQuery()
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				qq := q.Pan(geohash.Direction((i+j)%8), 0.05)
				if _, err := c.Client().Query(qq); err != nil {
					// ErrStopped and friends are expected once Stop lands.
					return
				}
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	c.Stop()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("queries still in flight 10s after Stop: shutdown deadlock")
	}
	// Submitting after Stop stays a clean error.
	if _, err := c.Client().Query(q); !errors.Is(err, ErrStopped) {
		t.Fatalf("post-stop query returned %v, want ErrStopped", err)
	}
}

// TestFetchCancelsOnHardError: with resilience disabled, one node answering
// with a permanent storage fault must cancel the sibling sub-request stuck
// on a crashed node — otherwise Fetch would block forever (background
// context, no deadline).
func TestFetchCancelsOnHardError(t *testing.T) {
	fp := simnet.NewFaultPlan(3)
	c := newTestCluster(t, func(cfg *Config) {
		cfg.Faults = fp
	})
	q := regionQuery()
	keys, err := q.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	byNode := c.Client().GroupByOwner(keys)
	if len(byNode) < 2 {
		t.Fatalf("need a footprint spanning at least 2 nodes, got %d", len(byNode))
	}
	ids := make([]dht.NodeID, 0, len(byNode))
	for id := range byNode {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fp.SetError(int(ids[0]), true) // instant hard error
	fp.Crash(int(ids[1]))          // eternal silence

	type out struct {
		err error
	}
	ch := make(chan out, 1)
	go func() {
		_, err := c.Client().Fetch(keys)
		ch <- out{err: err}
	}()
	select {
	case o := <-ch:
		if !errors.Is(o.err, ErrFaulted) {
			t.Fatalf("Fetch returned %v, want ErrFaulted", o.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Fetch hung: hard error did not cancel the crashed-node sub-request")
	}
}

// TestFaultPlanDeterministicReplay: the same seed must yield the same fault
// schedule, and replaying it against a fresh cluster must yield identical
// coverage reports query for query — the property that makes chaos failures
// reproducible from a single logged seed.
func TestFaultPlanDeterministicReplay(t *testing.T) {
	const (
		seed  = 99173
		nodes = 6
		steps = 8
	)
	type covSummary struct {
		Requested, Covered, Degraded, Missing    int
		SharesRequested, SharesServed, Recovered int
		NodeErrs                                 []string
		Err                                      string
		Count                                    int64
	}
	run := func() []covSummary {
		fp := simnet.NewFaultPlan(seed)
		cfg := DefaultConfig()
		cfg.Nodes = nodes
		cfg.PointsPerBlock = 64
		cfg.Faults = fp
		// Crash and reject only: both resolve deterministically (deadline
		// and instant bounce); pause/drop outcomes can race the deadline.
		cfg.Resilience = ResilienceConfig{
			RequestTimeout:  15 * time.Millisecond,
			Retries:         1,
			RetryBackoff:    time.Millisecond,
			AllowPartial:    true,
			ScatterFallback: true,
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		defer c.Stop()

		schedule := simnet.GenerateFaultSchedule(seed, nodes, steps, 5, simnet.FaultCrash, simnet.FaultReject)
		var sums []covSummary
		next := 0
		q := countyQuery()
		for step := 0; step < steps; step++ {
			for next < len(schedule) && schedule[next].Step <= step {
				fp.Apply(schedule[next])
				next++
			}
			for w := 0; w < 2; w++ {
				qq := q.Pan(geohash.Direction((step*2+w)%8), 0.05)
				res, err := c.Client().Query(qq)
				cov := res.Coverage
				s := covSummary{
					Requested: cov.Requested, Covered: cov.Covered,
					Degraded: cov.Degraded, Missing: cov.Missing(),
					SharesRequested: cov.SharesRequested, SharesServed: cov.SharesServed,
					Recovered: cov.Recovered,
					Count:     res.TotalCount("temperature"),
				}
				for n, e := range cov.NodeErrors {
					s.NodeErrs = append(s.NodeErrs, n+": "+e)
				}
				sort.Strings(s.NodeErrs)
				if err != nil {
					s.Err = err.Error()
				}
				sums = append(sums, s)
			}
		}
		return sums
	}

	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Errorf("query %d diverged:\n run A: %+v\n run B: %+v", i, a[i], b[i])
			}
		}
		t.Fatal("replay with identical seed produced different coverage reports")
	}
	// The run must actually have exercised failures, or the test is vacuous.
	sawPartial := false
	for _, s := range a {
		if s.Covered != s.Requested || len(s.NodeErrs) > 0 {
			sawPartial = true
			break
		}
	}
	if !sawPartial {
		t.Fatal("schedule produced no degraded query; replay test is vacuous")
	}
}

// TestHelperRerouteServesCrashedOwnerShare builds the §VII failover scenario
// end to end: a helper holds a replica of the owner's share (as after a
// clique handoff), the owner crashes, and the resilient coordinator serves
// the share from the helper's guest graph — complete coverage, with the
// rescue visible in Coverage.Recovered.
func TestHelperRerouteServesCrashedOwnerShare(t *testing.T) {
	fp := simnet.NewFaultPlan(11)
	rc := replication.DefaultConfig()
	rc.QueueThreshold = 1 << 20 // never organically hotspotted
	rc.RerouteProbability = 0
	c := newTestCluster(t, func(cfg *Config) {
		cfg.Faults = fp
		cfg.Replication = rc
		res := fastResilience()
		res.ScatterFallback = false // prove the helper path did the rescue
		cfg.Resilience = res
	})
	q := countyQuery()
	keys, err := q.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Client().Fetch(keys)
	if err != nil {
		t.Fatal(err)
	}

	byNode := c.Client().GroupByOwner(keys)
	var owner dht.NodeID
	most := -1
	for id, ks := range byNode {
		if len(ks) > most {
			most, owner = len(ks), id
		}
	}
	share := byNode[owner]
	var helper *Node
	for _, n := range c.Nodes() {
		if n.ID() != owner {
			helper = n
			break
		}
	}

	// Stage the replica on the helper, exactly as askReplicate would: data
	// cells into the guest graph, dataless keys negative-cached.
	payload := query.NewResult()
	var empties []cell.Key
	for _, k := range share {
		if s, ok := full.Cells[k]; ok {
			payload.Add(k, s)
		} else {
			empties = append(empties, k)
		}
	}
	helper.Guest().Put(payload)
	if len(empties) > 0 {
		helper.Guest().PutEmpty(empties)
	}
	c.Node(owner).Routing().Add(share[0], helper.ID(), share, time.Now())

	fp.Crash(int(owner))
	res, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cov := res.Coverage
	if !cov.Complete() {
		t.Fatalf("helper held the full share but coverage is %v", cov)
	}
	if cov.Recovered != len(share) {
		t.Fatalf("Recovered = %d, want %d (the rescued share)", cov.Recovered, len(share))
	}
	if res.TotalCount("temperature") != full.TotalCount("temperature") {
		t.Fatalf("rescued result differs: %d vs %d",
			res.TotalCount("temperature"), full.TotalCount("temperature"))
	}
	if c.Node(helper.ID()).Stats().GuestServed == 0 {
		t.Fatal("helper's guest graph served nothing; rescue came from elsewhere")
	}
}

// TestScatterRecoversOversizedReply: with real (sleeping) transfer costs, a
// bundled share whose reply payload outlives the per-attempt deadline is
// exactly what the scatter fallback exists for — per-key mini-requests carry
// one-cell replies that fit a fresh deadline each. Every share recovers, so
// coverage is complete, with the rescue visible in Recovered.
func TestScatterRecoversOversizedReply(t *testing.T) {
	// Reference aggregates from a free-cost cluster over the same dataset.
	plain := newTestCluster(t, nil)
	q := countyQuery()
	want, err := plain.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}

	c := newTestCluster(t, func(cfg *Config) {
		cfg.Sleeper = simnet.NewReal()
		// Transfer-dominated costs: a result cell costs ~16ms on the wire,
		// so any reply of 3+ cells blows the 40ms attempt deadline while
		// single-cell replies (and their requests) fit comfortably.
		cfg.Model = simnet.Model{NetByte: 100 * time.Microsecond}
		cfg.Resilience = ResilienceConfig{
			RequestTimeout:  40 * time.Millisecond,
			AllowPartial:    true,
			ScatterFallback: true,
		}
	})
	res, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	checkCoverageArithmetic(t, res)
	if !res.Coverage.Complete() {
		t.Fatalf("scatter should have recovered every share, got %v", res.Coverage)
	}
	if res.Coverage.Recovered == 0 {
		t.Fatal("no shares recovered: bundles fit the deadline and the test is vacuous")
	}
	if res.TotalCount("temperature") != want.TotalCount("temperature") {
		t.Fatalf("scatter-recovered counts differ: %d vs %d",
			res.TotalCount("temperature"), want.TotalCount("temperature"))
	}
}

// TestScatterPartitionFoldMatchesBundle drives the scatter decomposition of
// a coarse key directly: fetching the owner's extending partitions one at a
// time and folding them back into the requested key must reproduce the
// owner's bundled partial exactly (counts, min, max; sums up to float
// association order).
func TestScatterPartitionFoldMatchesBundle(t *testing.T) {
	c := newTestCluster(t, nil)
	cl := c.Client()
	q := query.Query{
		Box:         geohash.MustBox("9"),
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  1,
		TemporalRes: temporal.Day,
	}
	keys, err := q.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	rc := ResilienceConfig{AllowPartial: true, ScatterFallback: true}
	for id, share := range cl.GroupByOwner(keys) {
		n := c.Node(id)
		direct, err := n.Submit(context.Background(), share)
		if err != nil {
			t.Fatal(err)
		}
		scat, served := cl.scatterFetch(context.Background(), n, share, rc)
		if len(served) != len(share) {
			t.Fatalf("node %v: scatter served %d of %d keys", id, len(served), len(share))
		}
		if scat.Len() != direct.Len() {
			t.Fatalf("node %v: scatter %d cells, bundle %d", id, scat.Len(), direct.Len())
		}
		for k, ds := range direct.Cells {
			ss, ok := scat.Cells[k]
			if !ok {
				t.Fatalf("node %v: scatter missing cell %v", id, k)
			}
			for attr, d := range ds.Stats {
				s := ss.Stats[attr]
				if d.Count != s.Count || d.Min != s.Min || d.Max != s.Max {
					t.Fatalf("node %v cell %v attr %d: %+v != %+v", id, k, attr, d, s)
				}
				if diff := math.Abs(d.Sum - s.Sum); diff > 1e-6*math.Max(1, math.Abs(d.Sum)) {
					t.Fatalf("node %v cell %v attr %d: sums differ beyond association error: %v vs %v",
						id, k, attr, d.Sum, s.Sum)
				}
			}
		}
	}
}

// TestCoarseKeyDegradedWhenOwnerRejects: a coarse key is served by several
// owners' partials; when one owner bounces every request, the key must come
// back Degraded — present in the map, flagged as under-counting — not
// silently wrong and not missing.
func TestCoarseKeyDegradedWhenOwnerRejects(t *testing.T) {
	fp := simnet.NewFaultPlan(17)
	c := newTestCluster(t, func(cfg *Config) {
		cfg.Faults = fp
		rc := fastResilience()
		rc.HelperReroute = false
		// The victim fails instantly (rejection); healthy owners scan a
		// continent-scale partial, which needs headroom under -race.
		rc.RequestTimeout = 2 * time.Second
		cfg.Resilience = rc
	})
	q := query.Query{
		Box:         geohash.MustBox("9"),
		Time:        temporal.DayRange(2015, 2, 2),
		SpatialRes:  1,
		TemporalRes: temporal.Day,
	}
	keys, err := q.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	byNode := c.Client().GroupByOwner(keys)
	if len(byNode) < 2 {
		t.Fatalf("coarse key spans %d owners; want several", len(byNode))
	}
	want, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}

	var victim dht.NodeID
	for id := range byNode {
		victim = id
		break
	}
	fp.SetReject(int(victim), true)
	res, err := c.Client().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	checkCoverageArithmetic(t, res)
	cov := res.Coverage
	if cov.Degraded == 0 {
		t.Fatalf("rejecting one owner of a coarse key should degrade it, got %v", cov)
	}
	if cov.Missing() != 0 {
		t.Fatalf("coarse key reported missing despite surviving partials: %v", cov)
	}
	if res.Len() == 0 {
		t.Fatal("degraded coarse key absent from the result map")
	}
	if got, w := res.TotalCount("temperature"), want.TotalCount("temperature"); got == 0 || got >= w {
		t.Fatalf("degraded partial should under-count: got %d, healthy %d", got, w)
	}
}
