package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"stash/internal/cell"
	"stash/internal/dht"
	"stash/internal/geohash"
	"stash/internal/obs"
	"stash/internal/query"
	"stash/internal/replication"
)

// maxHelperCandidates bounds how many helper nodes the failover path probes
// for replicas of a failed owner's cliques before giving up. Probing is
// sequential (each candidate gets a fresh deadline), so this also bounds the
// failover latency tail.
const maxHelperCandidates = 3

// scatterBreakerLimit is the scatter-fallback circuit breaker: after this
// many consecutive mini-request failures against one node the scatter aborts,
// so a truly dead node costs a couple of deadlines rather than one per key.
const scatterBreakerLimit = 2

// maxEpochRetries bounds how many times one fetch re-plans after a
// not-owner bounce (the view it routed with was superseded mid-flight).
// Each retry re-reads the view, so consecutive membership changes are the
// only way to consume more than one; past the bound the fetch returns
// whatever honest partial coverage the last attempt produced.
const maxEpochRetries = 3

// Client is the coordinator the front-end talks to: it splits a query's
// footprint across the owning nodes (the zero-hop DHT lookup, §IV-D), fans
// the sub-requests out in parallel, and merges the partial results.
//
// When the cluster's ResilienceConfig is enabled the coordinator also runs
// the failure-handling ladder for each owner share: bounded per-attempt
// deadlines, retry with backoff, reroute to replication helpers holding
// replicas of the owner's cliques (paper §VII), scatter fallback over the
// owner's extending partitions, and finally graceful degradation to a
// partial result with a Coverage report.
type Client struct {
	cluster *Cluster
}

// Query evaluates an aggregation query against the cluster and returns the
// merged result.
func (cl *Client) Query(q query.Query) (query.Result, error) {
	return cl.QueryContext(context.Background(), q)
}

// QueryContext evaluates a query under the caller's context: cancellation
// and deadline propagate into every node sub-request, so a dead node
// produces a timeout, never a hang. When the context carries an obs.Trace
// the whole evaluation is recorded as a span tree rooted at "query".
func (cl *Client) QueryContext(ctx context.Context, q query.Query) (query.Result, error) {
	ctx, qs := obs.StartSpan(ctx, "query")
	if qs != nil { // String() allocates
		qs.SetAttr("query", q.String())
	}
	defer qs.End()
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	fpStart := time.Now()
	_, fps := obs.StartSpan(ctx, "footprint")
	keys, err := q.Footprint()
	fps.SetInt("keys", len(keys))
	fps.End()
	fpDur := time.Since(fpStart)
	mStageFootprint.ObserveDuration(fpDur)
	if err != nil {
		return query.Result{}, err
	}
	if p := obs.ProfileFromContext(ctx); p != nil { // guarded: String() allocates
		p.SetQuery(q.String())
		p.AddStage("footprint", fpDur)
		if len(keys) > 0 {
			k := keys[0]
			p.SetFootprint(len(keys), k.SpatialRes(), k.TemporalRes().String(), k.Level())
		}
	}
	return cl.FetchContext(ctx, keys)
}

// Fetch retrieves the summaries of an explicit cell-key set, grouped and
// routed by owner.
func (cl *Client) Fetch(keys []cell.Key) (query.Result, error) {
	return cl.FetchContext(context.Background(), keys)
}

// FetchContext retrieves an explicit cell-key set under the caller's
// context. With resilience disabled (the zero config) it behaves exactly
// like the original fail-fast coordinator: any node error fails the query,
// and the first error cancels the remaining sub-requests so no goroutine is
// left blocked on a dead node. With resilience enabled it runs the retry /
// failover ladder per owner share and can return a partial result whose
// Coverage field reports what was actually served.
func (cl *Client) FetchContext(ctx context.Context, keys []cell.Key) (query.Result, error) {
	if cl.cluster.isStopped() {
		return query.Result{}, ErrStopped
	}
	start := time.Now()
	mInflight.Add(1)
	defer mInflight.Add(-1)

	rc := cl.cluster.cfg.Resilience
	var res query.Result
	var err error
	// Plan against one membership snapshot per attempt: the epoch rides on
	// the request context so nodes can bounce stale-routed shares with
	// ErrNotOwner, and a bounce discards the whole attempt (nothing merges
	// twice) and re-plans on a fresh view.
	for attempt := 0; ; attempt++ {
		view := cl.cluster.View()
		byNode := cl.groupByOwner(view.Ring(), keys)
		if attempt == 0 {
			mFanoutNodes.Observe(float64(len(byNode)))
		}
		ectx := withEpoch(ctx, view.Epoch())
		var stale bool
		if !rc.Enabled() {
			res, err = cl.fetchFailFast(ectx, byNode)
			// ErrStopped from a node while the cluster itself is running
			// means the node was retired by a Leave mid-request — a stale
			// route, not a shutdown.
			stale = isNotOwner(err) ||
				(errors.Is(err, ErrStopped) && !cl.cluster.isStopped())
		} else {
			res, stale, err = cl.fetchResilient(ectx, byNode, rc)
		}
		if stale && attempt < maxEpochRetries && ctx.Err() == nil && !cl.cluster.isStopped() {
			mEpochRetries.Inc()
			continue
		}
		break
	}

	mQueryDur.ObserveDuration(time.Since(start))
	switch {
	case err != nil:
		mQueriesError.Inc()
	case !res.Coverage.Complete():
		mQueriesPartial.Inc()
		mPartialResults.Inc()
	default:
		mQueriesOK.Inc()
	}
	return res, err
}

// submit issues one owner sub-request, routing through the request coalescer
// when the cluster has one (CoalesceWindow > 0). With coalescing disabled the
// call degenerates to a direct node submit — today's behavior, exactly.
func (cl *Client) submit(ctx context.Context, n *Node, keys []cell.Key) (query.Result, error) {
	if co := cl.cluster.coalescer; co != nil {
		return co.fetch(ctx, n, keys)
	}
	return n.Submit(ctx, keys)
}

// TimedQuery evaluates a query and reports its wall-clock latency.
func (cl *Client) TimedQuery(q query.Query) (query.Result, time.Duration, error) {
	start := time.Now()
	res, err := cl.Query(q)
	return res, time.Since(start), err
}

// fetchFailFast is the resilience-disabled coordinator: parallel fan-out,
// first error wins and cancels the rest. Identical result semantics to the
// pre-resilience coordinator on healthy clusters.
func (cl *Client) fetchFailFast(ctx context.Context, byNode map[dht.NodeID][]cell.Key) (query.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	fanStart := time.Now()
	fanCtx, fanSpan := obs.StartSpan(ctx, "fanout")
	fanSpan.SetInt("shares", len(byNode))

	fi := newFanIn(cl.cluster.cfg.FanInWorkers)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for id, ks := range byNode {
		wg.Add(1)
		go func(id dht.NodeID, ks []cell.Key) {
			defer wg.Done()
			shareCtx, ss := obs.StartSpan(fanCtx, "share")
			if ss != nil { // String() allocates
				ss.SetAttr("node", id.String())
			}
			ss.SetInt("keys", len(ks))
			var res query.Result
			var err error
			if n := cl.cluster.node(id); n != nil {
				res, err = cl.submit(shareCtx, n, ks)
			} else {
				// The owner this plan targeted has departed: stale view.
				err = ErrNotOwner{Epoch: cl.cluster.Epoch()}
			}
			ss.End()
			if err == nil {
				// Replies merge pairwise as they land, on this reply
				// goroutine; the fan-in owns the reply's cells map from
				// here and recycles it into the Result pool.
				fi.add(res, true)
				return
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = err
				// Fail fast: release siblings still blocked on slow or
				// dead nodes instead of waiting out their silence.
				cancel()
			}
			mu.Unlock()
		}(id, ks)
	}
	wg.Wait()
	fanSpan.End()
	fanDur := time.Since(fanStart)
	mStageFanout.ObserveDuration(fanDur)
	obs.ProfileFromContext(ctx).AddStage("fanout", fanDur)

	if firstErr != nil {
		fi.discard()
		return query.Result{}, firstErr
	}
	// Most of the merge work already ran on the reply goroutines; finish
	// folds the surviving tournament partials and materializes the answer.
	mergeStart := time.Now()
	_, mergeSpan := obs.StartSpan(ctx, "merge")
	merged := fi.finish()
	mergeSpan.End()
	mergeDur := time.Since(mergeStart)
	mStageMerge.ObserveDuration(mergeDur)
	if p := obs.ProfileFromContext(ctx); p != nil {
		p.AddStage("merge", mergeDur)
		p.AddMergeFanIn(fi.stats())
	}
	return merged, nil
}

// shareOutcome is the result of one owner share (one node's slice of the
// footprint) after the full failure-handling ladder has run.
type shareOutcome struct {
	id        dht.NodeID
	keys      []cell.Key
	res       query.Result
	served    map[cell.Key]bool // share keys actually answered
	recovered int               // share keys rescued by a failover path
	err       error             // final error when any key stayed unserved
}

// fetchResilient runs every owner share through the retry/failover ladder
// concurrently, then assembles the merged result and its coverage report.
// The second return reports whether any share bounced with ErrNotOwner —
// the caller's cue to re-plan on a fresh view; when the retry budget is
// exhausted the unserved shares stay visible as honest partial coverage.
func (cl *Client) fetchResilient(ctx context.Context, byNode map[dht.NodeID][]cell.Key, rc ResilienceConfig) (query.Result, bool, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	fanStart := time.Now()
	fanCtx, fanSpan := obs.StartSpan(ctx, "fanout")
	fanSpan.SetInt("shares", len(byNode))

	fi := newFanIn(cl.cluster.cfg.FanInWorkers)
	outs := make([]*shareOutcome, 0, len(byNode))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, ks := range byNode {
		o := &shareOutcome{id: id, keys: ks}
		outs = append(outs, o)
		wg.Add(1)
		go func(o *shareOutcome) {
			defer wg.Done()
			cl.fetchShare(fanCtx, o, rc)
			// Fold this share's cells pairwise as they land (a failed share
			// may still carry a scatter partial). The fan-in owns the map
			// from here; the coverage accounting below reads only
			// keys/served/err.
			fi.add(o.res, true)
			o.res = query.Result{}
			if o.err != nil && !rc.AllowPartial {
				// The whole query is doomed; release the other shares.
				mu.Lock()
				cancel()
				mu.Unlock()
			}
		}(o)
	}
	wg.Wait()
	fanSpan.End()
	fanDur := time.Since(fanStart)
	mStageFanout.ObserveDuration(fanDur)
	obs.ProfileFromContext(ctx).AddStage("fanout", fanDur)

	mergeStart := time.Now()
	_, mergeSpan := obs.StartSpan(ctx, "merge")
	defer func() {
		mergeSpan.End()
		mergeDur := time.Since(mergeStart)
		mStageMerge.ObserveDuration(mergeDur)
		obs.ProfileFromContext(ctx).AddStage("merge", mergeDur)
	}()

	// Deterministic assembly: sort shares by node id so first-error choice
	// and NodeErrors content are reproducible for a given fault schedule.
	// (Cell merge order is the tournament's and may vary run to run; only
	// float summation order differs, which the oracle compares within
	// SumEpsilon.)
	sort.Slice(outs, func(i, j int) bool { return outs[i].id < outs[j].id })

	merged := fi.finish()
	obs.ProfileFromContext(ctx).AddMergeFanIn(fi.stats())
	cov := query.Coverage{NodeErrors: map[string]string{}}
	needed := map[cell.Key]int{}
	got := map[cell.Key]int{}
	var firstErr error
	stale := false
	for _, o := range outs {
		cov.Recovered += o.recovered
		for _, k := range o.keys {
			needed[k]++
			cov.SharesRequested++
			if o.served[k] {
				got[k]++
				cov.SharesServed++
			}
		}
		if o.err != nil {
			if isNotOwner(o.err) {
				stale = true
			}
			cov.NodeErrors[o.id.String()] = o.err.Error()
			if firstErr == nil {
				firstErr = o.err
			}
		}
	}
	cov.Requested = len(needed)
	for k, n := range needed {
		switch g := got[k]; {
		case g == n:
			cov.Covered++
		case g > 0:
			cov.Degraded++
		}
	}
	if len(cov.NodeErrors) == 0 {
		cov.NodeErrors = nil
	}
	merged.Coverage = cov

	switch {
	case cov.Complete():
		return merged, stale, nil
	case !rc.AllowPartial:
		return query.Result{}, stale, firstErr
	case cov.SharesServed == 0:
		return merged, stale, fmt.Errorf("%w: %v", ErrNoCoverage, firstErr)
	default:
		// Graceful degradation: partial result, nil error; the Coverage
		// report is the caller's signal that cells are missing or
		// under-counted.
		return merged, stale, nil
	}
}

// fetchShare runs one owner share through the failure-handling ladder:
//
//  1. direct submit with a per-attempt deadline, retried with doubling
//     backoff while the failure stays retryable;
//  2. helper reroute: serve the whole share from a replication helper's
//     guest graph (replicas of the failed owner's hottest cliques live on
//     nodes picked around the antipode, paper §VII-B3);
//  3. scatter fallback: break the share into per-key (and per-partition)
//     mini-requests, each with a fresh deadline — small requests survive a
//     slow node that a big bundle cannot.
//
// On return o.served marks the answered keys, o.err the final failure if
// any key stayed unserved.
func (cl *Client) fetchShare(ctx context.Context, o *shareOutcome, rc ResilienceConfig) {
	ctx, ss := obs.StartSpan(ctx, "share")
	if ss != nil { // String() allocates
		ss.SetAttr("node", o.id.String())
	}
	ss.SetInt("keys", len(o.keys))
	defer ss.End()
	o.served = make(map[cell.Key]bool, len(o.keys))
	node := cl.cluster.node(o.id)
	if node == nil {
		// The planned owner has departed: a stale-view bounce, not a node
		// failure — no ladder rung can serve a share addressed to nobody.
		o.err = ErrNotOwner{Epoch: cl.cluster.Epoch()}
		return
	}

	var lastErr error
	backoff := rc.RetryBackoff
	for attempt := 0; attempt <= rc.Retries; attempt++ {
		if attempt > 0 {
			mRetries.Inc()
			obs.ProfileFromContext(ctx).AddRetry()
			if backoff > 0 {
				if err := sleepCtx(ctx, backoff); err != nil {
					o.err = lastErr
					return
				}
				backoff *= 2
			}
		}
		res, err := cl.submitOnce(ctx, node, o.keys, rc)
		if err == nil {
			o.res = res
			for _, k := range o.keys {
				o.served[k] = true
			}
			return
		}
		lastErr = err
		if errors.Is(err, ErrStopped) && !cl.cluster.isStopped() {
			// The node was retired by a Leave while this share was in its
			// queue: reclassify as a stale-route bounce so the coordinator
			// re-plans instead of failing the query with ErrStopped.
			err = ErrNotOwner{Epoch: cl.cluster.Epoch()}
		}
		if isNotOwner(err) {
			// Retrying, helper reroute, or scattering against this node
			// cannot fix a wrong owner assignment; surface the bounce so
			// the coordinator re-plans on a fresh view.
			o.err = err
			return
		}
		if !Retryable(err) || ctx.Err() != nil {
			o.err = err
			return
		}
	}

	if rc.HelperReroute {
		if res, ok := cl.fetchFromHelpers(ctx, node, o.keys, rc); ok {
			mHelperRerouteHit.Inc()
			obs.ProfileFromContext(ctx).AddReroute()
			mRecoveredShares.Add(int64(len(o.keys)))
			o.res = res
			for _, k := range o.keys {
				o.served[k] = true
			}
			o.recovered = len(o.keys)
			return
		}
		mHelperRerouteMiss.Inc()
	}

	if rc.ScatterFallback {
		res, served := cl.scatterFetch(ctx, node, o.keys, rc)
		if len(served) > 0 {
			mRecoveredShares.Add(int64(len(served)))
			o.res = res
			for _, k := range served {
				o.served[k] = true
			}
			o.recovered = len(served)
			if len(served) == len(o.keys) {
				return
			}
		}
	}
	o.err = lastErr
}

// submitOnce performs a single direct sub-request against a node, bounded by
// the per-attempt deadline when one is configured.
func (cl *Client) submitOnce(ctx context.Context, n *Node, keys []cell.Key, rc ResilienceConfig) (query.Result, error) {
	if rc.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rc.RequestTimeout)
		defer cancel()
	}
	return cl.submit(ctx, n, keys)
}

// fetchFromHelpers tries to serve the whole share from replicas on helper
// nodes: first the helpers the failed owner recorded routes to, then the
// deterministic antipode candidates any client can derive from the share's
// geography (paper §VII-B3) — those survive even when the owner's routing
// table is unreachable with it. A helper counts only if its guest graph
// covers every key (§VII-C: reroute only on full coverage), since a partial
// guest answer cannot be told apart from genuinely empty cells.
func (cl *Client) fetchFromHelpers(ctx context.Context, failed *Node, keys []cell.Key, rc ResilienceConfig) (query.Result, bool) {
	repl := cl.cluster.cfg.Replication
	if !repl.Enabled() || len(keys) == 0 {
		return query.Result{}, false
	}
	seen := map[dht.NodeID]bool{failed.id: true}
	var cands []dht.NodeID
	for _, h := range failed.Routing().Helpers() {
		if !seen[h] {
			seen[h] = true
			cands = append(cands, h)
		}
	}
	rng := rand.New(rand.NewSource(seedFromGeohash(keys[0].Geohash)))
	for _, h := range replication.CandidateHelpers(keys[0].Geohash, cl.cluster.Ring(), failed.id, repl, rng) {
		if !seen[h] {
			seen[h] = true
			cands = append(cands, h)
		}
	}
	if len(cands) > maxHelperCandidates {
		cands = cands[:maxHelperCandidates]
	}
	for _, id := range cands {
		helper := cl.cluster.node(id)
		if helper == nil {
			continue
		}
		res, missing, err := cl.fetchGuestOnce(ctx, helper, keys, rc)
		if err == nil && len(missing) == 0 {
			return res, true
		}
		if ctx.Err() != nil {
			return query.Result{}, false
		}
	}
	return query.Result{}, false
}

// fetchGuestOnce asks one helper's guest graph for the keys, bounded by the
// per-attempt deadline.
func (cl *Client) fetchGuestOnce(ctx context.Context, n *Node, keys []cell.Key, rc ResilienceConfig) (query.Result, []cell.Key, error) {
	if rc.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rc.RequestTimeout)
		defer cancel()
	}
	return n.FetchGuest(ctx, keys)
}

// scatterFetch breaks a failed share into mini-requests against the same
// owner, each with a fresh per-attempt deadline. Fine keys go one at a
// time; a coarse key (shorter than the partition prefix) is decomposed into
// the owner's extending-partition keys, whose summaries fold back into the
// requested key — associative merging makes the folded partial exactly the
// one the bundled request would have produced. A circuit breaker aborts
// after scatterBreakerLimit consecutive failures so a dead node costs a
// couple of deadlines, not one per key.
func (cl *Client) scatterFetch(ctx context.Context, n *Node, keys []cell.Key, rc ResilienceConfig) (query.Result, []cell.Key) {
	mScatterFallbacks.Inc()
	prof := obs.ProfileFromContext(ctx)
	// The accumulator comes from the columnar pool, lazily: the pure-failure
	// path (dead node, breaker trip before any key lands) allocates nothing
	// and returns the zero Result.
	var acc *query.ColumnarResult
	var served []cell.Key
	fails := 0
	tripped := false
	plen := cl.cluster.Ring().PrefixLen()
	for _, k := range keys {
		if fails >= scatterBreakerLimit {
			if !tripped {
				tripped = true
				mBreakerTrips.Inc()
			}
			break
		}
		if ctx.Err() != nil {
			break
		}
		if k.Geohash.Len() >= plen {
			mScatterRequests.Inc()
			prof.AddScatter(1)
			r, err := cl.submitOnce(ctx, n, []cell.Key{k}, rc)
			if err != nil {
				fails++
				continue
			}
			fails = 0
			if r.Len() > 0 {
				if acc == nil {
					acc = query.GetColumnar()
				}
				acc.MergeResult(r)
			}
			query.PutResult(r)
			served = append(served, k)
			continue
		}
		// Coarse key: fetch the owner's partitions one at a time into a
		// pooled staging result; fold into the answer only if every
		// partition arrived, so a half-served coarse key never masquerades
		// as a complete partial.
		var part query.Result
		ok := true
		for _, p := range cl.partitionPrefixes(k.Geohash, n.id) {
			if fails >= scatterBreakerLimit {
				if !tripped {
					tripped = true
					mBreakerTrips.Inc()
				}
				ok = false
				break
			}
			if ctx.Err() != nil {
				ok = false
				break
			}
			pk := cell.Key{Geohash: p, Time: k.Time}
			mScatterRequests.Inc()
			prof.AddScatter(1)
			r, err := cl.submitOnce(ctx, n, []cell.Key{pk}, rc)
			if err != nil {
				fails++
				ok = false
				continue
			}
			fails = 0
			if sum, found := r.Cells[pk]; found {
				if part.Cells == nil {
					part = query.GetResult(1)
				}
				part.AddCell(k, sum, r.Hists[pk])
			}
			query.PutResult(r)
		}
		if ok {
			if part.Len() > 0 {
				if acc == nil {
					acc = query.GetColumnar()
				}
				acc.MergeResult(part)
			}
			served = append(served, k)
		}
		query.PutResult(part)
	}
	if acc == nil {
		return query.Result{}, served
	}
	res := acc.ToResult()
	acc.Release()
	return res, served
}

// partitionPrefixes enumerates the partition-prefix geohashes extending a
// coarse geohash that the given node owns.
func (cl *Client) partitionPrefixes(gh geohash.Hash, id dht.NodeID) []geohash.Hash {
	ring := cl.cluster.Ring()
	var out []geohash.Hash
	for _, p := range gh.Extensions(ring.PrefixLen()) {
		if ring.OwnerOfPartition(p) == id {
			out = append(out, p)
		}
	}
	return out
}

// sleepCtx waits d, aborting early when the context ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// seedFromGeohash derives a deterministic RNG seed from a geohash so every
// client walks the same helper-candidate sequence for the same share.
func seedFromGeohash(gh geohash.Hash) int64 {
	var buf [16]byte
	h := fnv.New64a()
	_, _ = h.Write(gh.AppendText(buf[:0]))
	return int64(h.Sum64())
}

// GroupByOwner exposes the coordinator's owner assignment: every key mapped
// to the node(s) owning its backing partitions. Harnesses use it to check
// per-node cache completeness.
func (cl *Client) GroupByOwner(keys []cell.Key) map[dht.NodeID][]cell.Key {
	return cl.groupByOwner(cl.cluster.Ring(), keys)
}

// ownerScratch is groupByOwner's working memory, pooled so that grouping a
// footprint allocates only what it returns.
type ownerScratch struct {
	seen   cell.Index   // footprint dedup
	owner  []dht.NodeID // by key index: a fine key's owner, or one of the marks below
	counts []ownerCount // keys per owner, in first-seen order
	ids    []dht.NodeID // one coarse key's distinct owners
}

// ownerCount is one owner's share: n keys, the next of which goes to
// position at of the backing array.
type ownerCount struct {
	id    dht.NodeID
	n, at int
}

// Marks in ownerScratch.owner; node IDs are never negative.
const (
	ownerRepeat dht.NodeID = -1 - iota // a repeat of an earlier key
	ownerCoarse                        // coarser than the partition prefix: several owners
)

var ownerScratchPool = sync.Pool{New: func() any { return new(ownerScratch) }}

// share returns the entry of the given owner, adding it on first sight.
// Owners per footprint are a handful, so a scan beats a map.
func (sc *ownerScratch) share(id dht.NodeID) *ownerCount {
	for i := range sc.counts {
		if sc.counts[i].id == id {
			return &sc.counts[i]
		}
	}
	sc.counts = append(sc.counts, ownerCount{id: id})
	return &sc.counts[len(sc.counts)-1]
}

// coarseOwners lists in sc.ids the distinct owners of the partitions extending
// a geohash shorter than the partition prefix, in partition order.
func (sc *ownerScratch) coarseOwners(ring *dht.Ring, gh geohash.Hash) []dht.NodeID {
	sc.ids = sc.ids[:0]
	plen := ring.PrefixLen()
next:
	for p, np := 0, gh.ExtensionCount(plen); p < np; p++ {
		id := ring.OwnerOfPartition(gh.Extension(plen, p))
		for _, have := range sc.ids {
			if have == id {
				continue next
			}
		}
		sc.ids = append(sc.ids, id)
	}
	return sc.ids
}

// groupByOwner assigns every key to the node(s) owning its backing
// partitions. Keys at or finer than the partition prefix have exactly one
// owner; coarser keys span every extending partition, and each owner
// computes its partial summary (partials merge associatively).
//
// Repeated keys in the footprint (overlapping viewport tiles, duplicated
// drill-down cells) are elided before fan-out: a duplicate would only make
// the owner serve — and the wire carry — the same summary twice.
//
// A counting pass sizes every share, so the shares are carved from one
// allocation (each capped at its length: appending to one cannot reach the
// next) and filled in footprint order.
func (cl *Client) groupByOwner(ring *dht.Ring, keys []cell.Key) map[dht.NodeID][]cell.Key {
	plen := ring.PrefixLen()
	sc := ownerScratchPool.Get().(*ownerScratch)
	defer ownerScratchPool.Put(sc)
	sc.seen.Reset(len(keys))
	sc.counts = sc.counts[:0]
	if cap(sc.owner) < len(keys) {
		sc.owner = make([]dht.NodeID, len(keys))
	}
	owner := sc.owner[:len(keys)]
	dups, total := 0, 0
	for i, k := range keys {
		switch _, fresh := sc.seen.GetOrInsert(k, 0); {
		case !fresh:
			owner[i] = ownerRepeat
			dups++
		case k.Geohash.Len() >= plen:
			owner[i] = ring.Owner(k.Geohash)
			sc.share(owner[i]).n++
			total++
		default:
			owner[i] = ownerCoarse
			for _, id := range sc.coarseOwners(ring, k.Geohash) {
				sc.share(id).n++
				total++
			}
		}
	}
	if dups > 0 {
		mCoordDedupKeys.Add(int64(dups))
	}

	backing := make([]cell.Key, total)
	at := 0
	for i := range sc.counts {
		sc.counts[i].at = at
		at += sc.counts[i].n
	}
	place := func(id dht.NodeID, k cell.Key) {
		c := sc.share(id)
		backing[c.at] = k
		c.at++
	}
	for i, k := range keys {
		switch id := owner[i]; id {
		case ownerRepeat:
		case ownerCoarse:
			for _, id := range sc.coarseOwners(ring, k.Geohash) {
				place(id, k)
			}
		default:
			place(id, k)
		}
	}
	out := make(map[dht.NodeID][]cell.Key, len(sc.counts))
	for _, c := range sc.counts {
		out[c.id] = backing[c.at-c.n : c.at : c.at]
	}
	return out
}

// Describe formats a one-line summary of a result for logging and examples.
func Describe(res query.Result, attr string) string {
	return fmt.Sprintf("%d cells, %d %s observations", res.Len(), res.TotalCount(attr), attr)
}
