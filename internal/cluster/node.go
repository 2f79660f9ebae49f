package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stash/internal/cell"
	"stash/internal/dht"
	"stash/internal/galileo"
	"stash/internal/geohash"
	"stash/internal/namgen"
	"stash/internal/obs"
	"stash/internal/query"
	"stash/internal/replication"
	"stash/internal/stash"
	"stash/internal/wire"
)

// approxKeyBytes and approxCellBytes price message payloads for the network
// cost model: a key is a short string pair, a result cell adds four stats
// per attribute.
const (
	approxKeyBytes  = 24
	approxCellBytes = 160
)

// NodeStats is a snapshot of one node's counters.
type NodeStats struct {
	Processed      int64         // fetch tasks served
	CacheHits      int64         // cells served from the local STASH graph
	CacheMisses    int64         // cells that missed the local graph
	Derived        int64         // cells computed from cached children
	DiskCells      int64         // cells fetched from the backing store
	BlocksRead     int64         // backing-store blocks read
	Rerouted       int64         // requests redirected to a helper
	Handoffs       int64         // clique handoffs completed
	GuestServed    int64         // cells served from the guest graph
	PopulatedCells int64         // cells inserted during cache population
	PopulationTime time.Duration // wall time spent populating the cache
	QueuePeak      int64         // maximum observed queue length
}

type fetchTask struct {
	ctx   context.Context // carries the caller's trace across the queue
	keys  []cell.Key
	guest bool
	// epoch is the membership epoch at admission; serve-side population uses
	// it to discard work planned against a superseded ownership baseline.
	epoch uint64
	reply chan fetchReply
}

type fetchReply struct {
	result  query.Result
	missing []cell.Key
	err     error
}

// popTask is one unit of background cache population: the cells fetched
// from disk plus the keys that requested them (for negative caching), stamped
// with the membership epoch the fetch was admitted under.
type popTask struct {
	res       query.Result
	requested []cell.Key
	epoch     uint64
}

type distressMsg struct {
	root  cell.Key
	cells int
	reply chan bool
}

type replicateMsg struct {
	root    cell.Key
	keys    []cell.Key
	payload query.Result
	reply   chan bool
}

type guestEntry struct {
	keys     []cell.Key
	lastUsed time.Time
}

// Node is one cluster member: a Galileo shard plus (optionally) a STASH
// graph shard, a guest graph for replicated cliques, a bounded request
// queue served by worker goroutines, and the hotspot-handling state.
type Node struct {
	id      dht.NodeID
	cluster *Cluster
	store   *galileo.Store
	graph   *stash.Graph // nil in the basic system
	guest   *stash.Graph
	routing *replication.Table

	requests chan fetchTask
	control  chan any
	done     chan struct{}
	wg       sync.WaitGroup

	// Bounded cache-population pool (the paper's population thread,
	// §VIII-C2): serve workers hand fetched cells to popCh; popWG tracks
	// the pool goroutines draining it.
	popCh chan popTask
	popWG sync.WaitGroup

	// flipState is the per-node lock-free reroute RNG (splitmix64 on an
	// atomic counter), so probabilistic redirect decisions never serialize
	// the submitting goroutines.
	flipState atomic.Uint64

	// rng backs the rare handoff path's helper selection only; the hot
	// path never takes rngMu.
	rngMu sync.Mutex
	rng   *rand.Rand

	lastHandoff   atomic.Int64 // unix nanos
	handoffActive atomic.Bool

	// frozen, when non-nil, is the set of partitions mid-migration off this
	// node: population tasks touching them are filtered so extracted cells
	// cannot reappear behind the migrator's back. Written only by the
	// membership controller; read lock-free on the population path.
	frozen atomic.Pointer[map[geohash.Hash]bool]
	// popGate lets the membership controller drain in-flight cache inserts:
	// populateOne and the derivation insert hold the read side; the
	// controller's barrier (write lock, immediately released) happens-after
	// every insert that started before the epoch flipped.
	popGate sync.RWMutex
	// stopOnce makes stop idempotent: a node retired by Leave and a
	// subsequent Cluster.Stop may both reach it.
	stopOnce sync.Once

	guestMu      sync.Mutex
	guestCliques map[cell.Key]*guestEntry

	// hot ranks this node's most-requested cell keys (nil disables); the
	// serve path offers each task's key batch under one sketch-lock
	// acquisition.
	hot *obs.TopK[cell.Key]

	// sfInflight is the serve-side singleflight table (groupcache-style):
	// one entry per cell key currently being derived or fetched from disk,
	// so concurrent identical misses attach as waiters instead of issuing
	// their own scans. Guarded by sfMu; entries resolve via channel close.
	sfMu       sync.Mutex
	sfInflight map[cell.Key]*sfEntry

	processed      atomic.Int64
	derived        atomic.Int64
	diskCells      atomic.Int64
	rerouted       atomic.Int64
	handoffs       atomic.Int64
	guestServed    atomic.Int64
	populatedCells atomic.Int64
	populationNs   atomic.Int64
	queuePeak      atomic.Int64
}

func newNode(id dht.NodeID, c *Cluster, gen *namgen.Generator) *Node {
	n := &Node{
		id:           id,
		cluster:      c,
		store:        galileo.NewStore(c.Ring(), id, gen, c.cfg.Model, c.cfg.Sleeper),
		routing:      replication.NewTable(),
		requests:     make(chan fetchTask, c.cfg.QueueSize),
		control:      make(chan any, 64),
		done:         make(chan struct{}),
		rng:          rand.New(rand.NewSource(int64(id)*7919 + 1)),
		guestCliques: map[cell.Key]*guestEntry{},
		sfInflight:   map[cell.Key]*sfEntry{},
	}
	n.flipState.Store(uint64(id)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	if c.cfg.Histograms {
		n.store.SetHistograms(true)
	}
	if c.cfg.GalileoParallelReads > 1 {
		n.store.SetParallelReads(c.cfg.GalileoParallelReads)
	}
	if c.cfg.Stash != nil {
		sc := *c.cfg.Stash
		sc.Model = c.cfg.Model
		sc.Sleeper = c.cfg.Sleeper
		sc.Tier = "local"
		n.graph = stash.NewGraph(sc)

		gc := sc
		gc.Tier = "guest"
		if c.cfg.GuestCapacity > 0 {
			gc.Capacity = c.cfg.GuestCapacity
		}
		n.guest = stash.NewGraph(gc)
	}
	return n
}

// ID returns the node's ring identity.
func (n *Node) ID() dht.NodeID { return n.id }

// Graph returns the node's local STASH shard (nil in the basic system).
func (n *Node) Graph() *stash.Graph { return n.graph }

// Guest returns the node's guest STASH shard (nil in the basic system).
func (n *Node) Guest() *stash.Graph { return n.guest }

// Store returns the node's Galileo shard.
func (n *Node) Store() *galileo.Store { return n.store }

// Routing returns the node's replication routing table.
func (n *Node) Routing() *replication.Table { return n.routing }

// QueueLen returns the number of pending requests.
func (n *Node) QueueLen() int { return len(n.requests) }

// HotKeys returns this node's top-n most-requested cell keys (nil when
// hot-key telemetry is disabled).
func (n *Node) HotKeys(num int) []obs.TopEntry[cell.Key] { return n.hot.Top(num) }

// Stats snapshots the node's counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Processed:      n.processed.Load(),
		CacheHits:      n.graphStat(func(s stash.Stats) int64 { return s.Hits }),
		CacheMisses:    n.graphStat(func(s stash.Stats) int64 { return s.Misses }),
		Derived:        n.derived.Load(),
		DiskCells:      n.diskCells.Load(),
		BlocksRead:     n.store.BlocksRead(),
		Rerouted:       n.rerouted.Load(),
		Handoffs:       n.handoffs.Load(),
		GuestServed:    n.guestServed.Load(),
		PopulatedCells: n.populatedCells.Load(),
		PopulationTime: time.Duration(n.populationNs.Load()),
		QueuePeak:      n.queuePeak.Load(),
	}
}

func (n *Node) graphStat(f func(stash.Stats) int64) int64 {
	if n.graph == nil {
		return 0
	}
	return f(n.graph.Stats())
}

func (n *Node) start(workers int) {
	for i := 0; i < workers; i++ {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for {
				select {
				case t := <-n.requests:
					n.handle(t)
				case <-n.done:
					return
				}
			}
		}()
	}
	if n.graph != nil {
		// The bounded population pool: the paper dedicates a separate
		// population thread (§VIII-C2); we run a small fixed pool fed by a
		// bounded queue instead of one goroutine per cache miss. The queue
		// is sized like the request queue: population work is at most one
		// task per in-flight request.
		n.popCh = make(chan popTask, cap(n.requests))
		for i := 0; i < n.cluster.cfg.PopulationWorkers; i++ {
			n.popWG.Add(1)
			go func() {
				defer n.popWG.Done()
				for t := range n.popCh {
					n.populateOne(t)
				}
			}()
		}
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.controlLoop()
	}()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.janitorLoop()
	}()
}

func (n *Node) stop() {
	n.stopOnce.Do(func() {
		close(n.done)
		// Workers first: only serve workers send on popCh, so the channel can
		// be closed exactly when no worker can enqueue anymore; the population
		// pool then drains the residue and exits. Closing in the reverse order
		// would race a worker's send against close — the channel-shaped
		// re-statement of the WaitGroup misuse the chaos suite used to exercise
		// under -race.
		n.wg.Wait()
		if n.popCh != nil {
			close(n.popCh)
		}
		n.popWG.Wait()
	})
}

// Submit evaluates a cell fetch on this node on behalf of a client, honoring
// the context's deadline and cancellation. When the node has active replicas
// covering the request, the call is probabilistically redirected to the
// helper (paper §VII-C); a helper failure or missing cells fall back to the
// local path rather than failing a request the owner can serve itself.
func (n *Node) Submit(ctx context.Context, keys []cell.Key) (query.Result, error) {
	cfg := n.cluster.cfg.Replication
	// A crashed node cannot run its redirect logic: the request vanishes at
	// the transport (enqueue below), exactly like the direct path.
	crashed := false
	if fp := n.cluster.cfg.Faults; fp != nil && fp.Crashed(int(n.id)) {
		crashed = true
	}
	if !crashed && cfg.Enabled() && n.routing.Len() > 0 {
		if helper, ok := n.routing.Lookup(keys); ok && n.flip(cfg.RerouteProbability) {
			// A helper that has since left the cluster is simply skipped —
			// the janitor purges its routes at the next epoch change.
			if hn := n.cluster.node(helper); hn != nil {
				n.rerouted.Add(1)
				mNodeRedirects.Inc()
				obs.ProfileFromContext(ctx).AddReroute()
				rep, err := hn.enqueue(ctx, keys, true)
				switch {
				case err != nil:
					// Helper unreachable; serve locally below.
				case len(rep.missing) == 0:
					return rep.result, nil
				default:
					local, err := n.enqueue(ctx, rep.missing, false)
					if err != nil {
						return query.Result{}, err
					}
					rep.result.Merge(local.result)
					return rep.result, nil
				}
			}
		}
	}
	rep, err := n.enqueue(ctx, keys, false)
	if err != nil {
		return query.Result{}, err
	}
	return rep.result, nil
}

// FetchGuest serves keys purely from this node's guest graph on behalf of
// the coordinator's failover path: cells not replicated here come back as
// missing, never touching the (possibly dead) owner.
func (n *Node) FetchGuest(ctx context.Context, keys []cell.Key) (query.Result, []cell.Key, error) {
	rep, err := n.enqueue(ctx, keys, true)
	return rep.result, rep.missing, err
}

// enqueue pushes a task through the node's request queue and waits for the
// worker's reply. The caller pays the request and response network costs,
// so client-perceived latency includes both directions. The fault plan is
// consulted here — the transport boundary — so every failure mode looks to
// the caller exactly like its real-world counterpart: a rejection is
// instant, a crash or dropped reply is silence until the context deadline,
// a pause is added latency.
func (n *Node) enqueue(ctx context.Context, keys []cell.Key, guest bool) (fetchReply, error) {
	c := n.cluster
	ctx, sp := obs.StartSpan(ctx, "node.request")
	if sp != nil { // String() allocates
		sp.SetAttr("node", n.id.String())
	}
	if guest {
		sp.SetAttr("guest", "true")
	}
	defer sp.End()
	prof := obs.ProfileFromContext(ctx)
	if prof != nil {
		prof.AddNode(n.id.String(), len(keys))
		prof.AddWireBytes(len(keys) * approxKeyBytes)
	}
	// Membership-epoch validation at admission: a request routed against a
	// superseded view may have the wrong owner grouping, so it bounces with a
	// retriable not-owner error and the coordinator re-plans on a fresh view.
	// Requests without a stamped epoch (direct node access, guest reroutes,
	// tests) skip the check.
	eAdmit := c.Epoch()
	if ec, ok := epochFrom(ctx); ok && ec != eAdmit {
		mNotOwner.Inc()
		return fetchReply{}, fmt.Errorf("%v: %w", n.id, ErrNotOwner{RequestEpoch: ec, Epoch: eAdmit})
	}
	if fp := c.cfg.Faults; fp != nil {
		id := int(n.id)
		if fp.Rejecting(id) {
			mFireReject.Inc()
			return fetchReply{}, fmt.Errorf("%v: %w", n.id, ErrRejected)
		}
		if fp.Erroring(id) {
			mFireError.Inc()
			return fetchReply{}, fmt.Errorf("%v: %w", n.id, ErrFaulted)
		}
		if fp.Crashed(id) {
			// A crashed node never answers: the request vanishes into the
			// transport and only the caller's deadline (or cluster
			// shutdown) ends the wait.
			mFireCrash.Inc()
			select {
			case <-ctx.Done():
				return fetchReply{}, fmt.Errorf("%v: %w: %v", n.id, ErrUnavailable, ctx.Err())
			case <-n.done:
				return fetchReply{}, ErrStopped
			}
		}
		if d := fp.PauseFor(id); d > 0 {
			mFirePause.Inc()
			if err := n.sleepCtx(ctx, d); err != nil {
				return fetchReply{}, err
			}
		}
	}
	c.cfg.Sleeper.Apply(c.cfg.Model.NetCost(len(keys) * approxKeyBytes))

	t := fetchTask{ctx: ctx, keys: keys, guest: guest, epoch: eAdmit, reply: make(chan fetchReply, 1)}
	select {
	case n.requests <- t:
	case <-ctx.Done():
		return fetchReply{}, ctx.Err()
	case <-n.done:
		return fetchReply{}, ErrStopped
	}
	// CAS max loop: the previous load-then-store pair lost updates when two
	// submitters raced (both could observe a stale peak and the larger
	// value could be overwritten by the smaller).
	if q := int64(len(n.requests)); q > 0 {
		for {
			cur := n.queuePeak.Load()
			if q <= cur || n.queuePeak.CompareAndSwap(cur, q) {
				break
			}
		}
	}
	n.maybeHandoff()

	select {
	case rep := <-t.reply:
		if fp := c.cfg.Faults; fp != nil && fp.DropReply(int(n.id)) {
			mFireDrop.Inc()
			// The reply was lost in flight: the node did the work (its
			// cache populated), but the caller sees only silence.
			select {
			case <-ctx.Done():
				return fetchReply{}, fmt.Errorf("%v: reply dropped: %w: %v", n.id, ErrUnavailable, ctx.Err())
			case <-n.done:
				return fetchReply{}, ErrStopped
			}
		}
		if rep.err == nil {
			c.cfg.Sleeper.Apply(c.cfg.Model.NetCost(rep.result.Len() * approxCellBytes))
			prof.AddWireBytes(rep.result.Len() * approxCellBytes)
			// The reply transfer itself can outlive the caller's deadline:
			// an oversized payload on a slow link is a timeout to the
			// caller even though the node answered. (No-op without a
			// deadline: background contexts never report Err.)
			if ctx.Err() != nil {
				return fetchReply{}, fmt.Errorf("%v: reply transfer exceeded deadline: %w: %v", n.id, ErrUnavailable, ctx.Err())
			}
			// A flip between admission and reply means the serve-side disk
			// scan may have used the new ring while the caller's plan used the
			// old one — moved keys would come back silently empty. Bounce so
			// the coordinator re-plans; guest replies are ownership-free.
			if cur := c.Epoch(); cur != eAdmit && !guest {
				mNotOwner.Inc()
				return fetchReply{}, fmt.Errorf("%v: %w", n.id, ErrNotOwner{RequestEpoch: eAdmit, Epoch: cur})
			}
		}
		return rep, rep.err
	case <-ctx.Done():
		return fetchReply{}, ctx.Err()
	case <-n.done:
		return fetchReply{}, ErrStopped
	}
}

// sleepCtx waits d of real wall-clock time (injected stall, not modeled
// cost), aborting early on context or shutdown.
func (n *Node) sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-n.done:
		return ErrStopped
	}
}

// flip draws a reroute decision without locking: one atomic add on the
// per-node state plus the splitmix64 finalizer. Concurrent submitters each
// advance the sequence by a fixed odd stride, so the stream stays
// equidistributed no matter how the adds interleave, and single-threaded
// callers see a deterministic per-node sequence.
func (n *Node) flip(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	x := n.flipState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < p
}

// handle serves one fetch task on a worker goroutine. The task carries the
// caller's context so the node-side work records into the caller's trace.
func (n *Node) handle(t fetchTask) {
	n.processed.Add(1)
	n.hot.OfferBatch(t.keys)
	ctx := t.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.StartSpan(ctx, "node.serve")
	if sp != nil { // String() allocates
		sp.SetAttr("node", n.id.String())
	}
	defer sp.End()
	if t.guest {
		t.reply <- n.handleGuest(ctx, t.keys)
		return
	}
	t.reply <- n.handleLocal(ctx, t.keys, t.epoch)
}

// handleGuest serves a rerouted request purely from the guest graph; cells
// the guest no longer holds are reported back as missing for the caller to
// fall back on (paper §VII-C).
func (n *Node) handleGuest(ctx context.Context, keys []cell.Key) fetchReply {
	if n.guest == nil {
		return fetchReply{result: query.NewResult(), missing: keys}
	}
	start := time.Now()
	_, gs := obs.StartSpan(ctx, "graph.get")
	found, missing := n.guest.GetBatch(keys)
	gs.SetInt("hits", found.Len())
	gs.End()
	getDur := time.Since(start)
	mStageGraphGet.ObserveDuration(getDur)
	prof := obs.ProfileFromContext(ctx)
	prof.AddTier("guest", found.Len(), len(missing))
	prof.AddStage("graph.get", getDur)
	n.guestServed.Add(int64(found.Len()))
	mGuestServed.Add(int64(found.Len()))
	n.touchGuestCliques(keys)
	return fetchReply{result: found, missing: missing}
}

// handleLocal serves an owner-path request as a staged pipeline: (1) one
// batched graph get (stripe-grouped, one lock acquisition per touched
// stripe), (2) a serve-side singleflight claim over the misses (when
// enabled) so concurrent identical misses share one derivation/disk scan,
// (3) one batched derivation pass over every owned miss, (4) one disk scan
// of the residue, grouped by Galileo block so each covering block is read
// exactly once, and (5) handoff of the fetched cells to the bounded
// population pool (the paper's separate population thread, §VIII-C2) so the
// response returns without waiting for cache maintenance.
func (n *Node) handleLocal(ctx context.Context, keys []cell.Key, epoch uint64) fetchReply {
	prof := obs.ProfileFromContext(ctx)
	if n.graph == nil {
		res, err := n.diskScan(ctx, keys)
		if err == nil {
			n.diskCells.Add(int64(len(keys)))
			prof.AddDiskCells(len(keys))
		}
		return fetchReply{result: res, err: err}
	}

	// Stage 1: batched graph get.
	getStart := time.Now()
	_, gs := obs.StartSpan(ctx, "graph.get")
	found, missing := n.graph.GetBatch(keys)
	gs.SetInt("hits", len(keys)-len(missing))
	gs.End()
	getDur := time.Since(getStart)
	mStageGraphGet.ObserveDuration(getDur)
	prof.AddTier("local", len(keys)-len(missing), len(missing))
	prof.AddStage("graph.get", getDur)
	if len(missing) == 0 {
		return fetchReply{result: found}
	}
	if n.cluster.cfg.DisablePLM {
		// abl-plm: without per-cell completeness tracking the node cannot
		// tell which chunks are missing and re-evaluates the whole request.
		res, err := n.diskScan(ctx, keys)
		if err != nil {
			return fetchReply{result: found, err: err}
		}
		n.diskCells.Add(int64(len(keys)))
		prof.AddDiskCells(len(keys))
		// The scan goes to the population pool, which reads it after this
		// reply (and its map) has been recycled: answer with a copy.
		found.Reset()
		mergeResolved(&found, res)
		n.populate(res, keys, epoch)
		return fetchReply{result: found}
	}

	if !n.cluster.cfg.ServeSingleflight {
		err := n.resolveMisses(ctx, missing, &found, epoch)
		return fetchReply{result: found, err: err}
	}

	// Singleflight: claim the misses no in-flight request is already
	// fetching; for the rest, attach as a waiter to the owning request's
	// entry. Owned keys are resolved and PUBLISHED BEFORE waiting, which is
	// what makes cross-request claim cycles (A owns k1 and waits on k2 while
	// B owns k2 and waits on k1) deadlock-free.
	owned, ownedEntries, waits := n.sfClaim(missing)
	prof.AddSingleflight(len(owned), len(waits))
	if len(owned) > 0 {
		mSFLeader.Add(int64(len(owned)))
		err := n.resolveMisses(ctx, owned, &found, epoch)
		// Owned keys were graph misses, so their presence in found is
		// exactly what resolveMisses produced — publish straight from it.
		n.sfPublish(owned, ownedEntries, found, err)
		if err != nil {
			return fetchReply{result: found, err: err}
		}
	}
	if len(waits) > 0 {
		fallback, err := n.sfWait(ctx, waits, &found)
		if err != nil {
			return fetchReply{result: found, err: err}
		}
		if len(fallback) > 0 {
			// The leader that owned these keys failed; fetch them ourselves
			// rather than propagating its error to an unrelated request.
			if err := n.resolveMisses(ctx, fallback, &found, epoch); err != nil {
				return fetchReply{result: found, err: err}
			}
		}
	}
	return fetchReply{result: found}
}

// resolveMisses runs the post-cache stages for a set of graph misses —
// batched derivation from cached children, disk scan of the residue, and
// handoff to the bounded population pool — merging everything it resolves
// directly into dst (no intermediate result, no second merge pass). After
// it returns, dst holds every missing key that produced data; keys still
// absent are genuinely empty.
func (n *Node) resolveMisses(ctx context.Context, missing []cell.Key, dst *query.Result, epoch uint64) error {
	// Batched derivation from cached children — every miss is attempted in
	// one pass, so the child lookups of the whole batch share stripe-lock
	// acquisitions instead of re-locking per missing key. The popGate read
	// lock brackets the derivation's cache inserts so the membership
	// controller's post-flip barrier can drain them before re-sweeping
	// coarse partials.
	deriveStart := time.Now()
	_, drs := obs.StartSpan(ctx, "graph.derive")
	n.popGate.RLock()
	derived, unfetched := n.graph.DeriveBatch(missing)
	n.popGate.RUnlock()
	drs.SetInt("derived", derived.Len())
	drs.End()
	deriveDur := time.Since(deriveStart)
	mStageDerive.ObserveDuration(deriveDur)
	prof := obs.ProfileFromContext(ctx)
	prof.AddStage("graph.derive", deriveDur)
	if derived.Len() > 0 {
		n.derived.Add(int64(derived.Len()))
		mDerived.Add(int64(derived.Len()))
		prof.AddDerived(derived.Len())
		mergeResolved(dst, derived)
	}
	if len(unfetched) == 0 {
		return nil
	}

	// Disk scan of the residue, grouped by backing block.
	diskRes, err := n.diskScan(ctx, unfetched)
	if err != nil {
		return err
	}
	n.diskCells.Add(int64(len(unfetched)))
	prof.AddDiskCells(len(unfetched))
	mergeResolved(dst, diskRes)

	// Bounded background population.
	n.populate(diskRes, unfetched, epoch)
	return nil
}

// mergeResolved assembles one resolution tier's cells into the reply by
// direct insert. The tiers are disjoint by construction — derived and
// disk-scanned keys were graph misses (absent from the served cells), and
// DeriveBatch hands the disk scan only the keys it could not derive — so
// nothing ever merges and each cell costs exactly one map insert. Histogram
// sets stay shared (and immutable by convention) with the population task and
// the cache.
func mergeResolved(dst *query.Result, src query.Result) {
	if dst.Cells == nil {
		// Nothing was served from the cache: the reply map starts here, from
		// the same pool GetBatch would have drawn it from.
		dst.Cells = query.GetResult(src.Len()).Cells
	}
	for k, s := range src.Cells {
		dst.Set(k, s, src.Hists[k])
	}
}

// sfEntry is one in-flight miss in the serve-side singleflight table. The
// leader fills sum/found/err and closes done; waiters read the fields only
// after done closes (the channel close is the happens-before edge).
type sfEntry struct {
	done  chan struct{}
	sum   cell.Summary
	hists *cell.Hists
	found bool // key produced data (false = genuinely empty, not an error)
	err   error
}

// sfClaim partitions a request's misses into keys this request now owns
// (new entries inserted into the in-flight table) and keys another request
// is already fetching (returned as waiters). A duplicate key inside one
// request lands in waits against our own entry, which resolves when we
// publish — before we wait — so self-waits cannot deadlock.
func (n *Node) sfClaim(missing []cell.Key) ([]cell.Key, []*sfEntry, map[cell.Key]*sfEntry) {
	var owned []cell.Key
	var ownedEntries []*sfEntry
	var waits map[cell.Key]*sfEntry
	n.sfMu.Lock()
	for _, k := range missing {
		if e, ok := n.sfInflight[k]; ok {
			if waits == nil {
				waits = make(map[cell.Key]*sfEntry, 4)
			}
			waits[k] = e
			continue
		}
		e := &sfEntry{done: make(chan struct{})}
		n.sfInflight[k] = e
		owned = append(owned, k)
		ownedEntries = append(ownedEntries, e)
	}
	n.sfMu.Unlock()
	return owned, ownedEntries, waits
}

// sfPublish resolves the owned entries from the leader's result (or error)
// and removes them from the in-flight table. It must run before the leader
// waits on any entry it does not own.
func (n *Node) sfPublish(owned []cell.Key, entries []*sfEntry, res query.Result, err error) {
	for i, k := range owned {
		e := entries[i]
		if err != nil {
			e.err = err
		} else {
			e.sum, e.found = res.Cells[k]
			e.hists = res.Hists[k]
		}
		close(e.done)
	}
	n.sfMu.Lock()
	for _, k := range owned {
		delete(n.sfInflight, k)
	}
	n.sfMu.Unlock()
}

// sfWait blocks on the entries another request owns, merging resolved
// summaries into dst. Keys whose leader failed come back as fallback for the
// caller to fetch itself; only context/shutdown aborts return an error.
func (n *Node) sfWait(ctx context.Context, waits map[cell.Key]*sfEntry, dst *query.Result) ([]cell.Key, error) {
	var fallback []cell.Key
	shared := 0
	for k, e := range waits {
		select {
		case <-e.done:
		case <-ctx.Done():
			mSFShared.Add(int64(shared))
			return nil, ctx.Err()
		case <-n.done:
			mSFShared.Add(int64(shared))
			return nil, ErrStopped
		}
		if e.err != nil {
			fallback = append(fallback, k)
			continue
		}
		shared++
		if e.found {
			dst.Set(k, e.sum, e.hists)
		}
	}
	mSFShared.Add(int64(shared))
	return fallback, nil
}

// diskScan fetches cells from the backing store under a "disk.scan" span and
// the disk-stage latency histogram.
func (n *Node) diskScan(ctx context.Context, keys []cell.Key) (query.Result, error) {
	start := time.Now()
	ctx, ds := obs.StartSpan(ctx, "disk.scan")
	ds.SetInt("cells", len(keys))
	res, err := n.store.FetchCellsCtx(ctx, keys)
	ds.End()
	scanDur := time.Since(start)
	mStageDiskScan.ObserveDuration(scanDur)
	obs.ProfileFromContext(ctx).AddStage("disk.scan", scanDur)
	if err == nil {
		mDiskCellFetches.Add(int64(len(keys)))
	}
	return res, err
}

// populate hands fetched cells to the bounded population pool off the
// response path (the paper's separate population thread, §VIII-C2, now with
// a fixed worker count instead of a goroutine per miss). A full population
// queue applies backpressure: the serving worker populates inline rather
// than dropping the work or growing without bound.
func (n *Node) populate(res query.Result, requested []cell.Key, epoch uint64) {
	t := popTask{res: res, requested: requested, epoch: epoch}
	select {
	case n.popCh <- t:
		mPopQueued.Inc()
	default:
		mPopInline.Inc()
		n.populateOne(t)
	}
}

// populateOne inserts one fetch result into the cache, negative-caching
// requested keys that held no data. Tasks admitted under a superseded
// membership epoch are discarded outright: their coarse cells were computed
// against an ownership baseline that no longer holds, and their fine cells
// may belong to partitions this node just handed off. Population is
// best-effort cache warming, so dropping is always safe.
func (n *Node) populateOne(t popTask) {
	n.popGate.RLock()
	defer n.popGate.RUnlock()
	if t.epoch != n.cluster.Epoch() {
		mPopStaleDropped.Inc()
		return
	}
	if fz := n.frozen.Load(); fz != nil {
		t = filterFrozen(t, *fz, n.cluster.Ring().PrefixLen())
	}
	start := time.Now()
	n.graph.Put(t.res)
	var empties []cell.Key
	for _, k := range t.requested {
		if _, ok := t.res.Cells[k]; !ok {
			empties = append(empties, k)
		}
	}
	if len(empties) > 0 {
		n.graph.PutEmpty(empties)
	}
	d := time.Since(start)
	mStagePopulate.ObserveDuration(d)
	n.populationNs.Add(int64(d))
	n.populatedCells.Add(int64(len(t.requested)))
}

// filterFrozen strips from a population task every cell and requested key
// touching a frozen (mid-migration) partition, so extracted cells cannot
// reappear behind the migrator's back. A coarse key's cached value is a
// partial over every owned partition under its geohash, so freezing any of
// those invalidates its baseline too.
func filterFrozen(t popTask, frozen map[geohash.Hash]bool, plen int) popTask {
	touches := func(gh geohash.Hash) bool {
		if gh.Len() >= plen {
			return frozen[gh.Prefix(plen)]
		}
		for p := range frozen {
			if p.HasPrefix(gh) {
				return true
			}
		}
		return false
	}
	out := popTask{res: query.NewResult(), epoch: t.epoch}
	for k, s := range t.res.Cells {
		if !touches(k.Geohash) {
			out.res.Set(k, s, t.res.Hists[k])
		}
	}
	for _, k := range t.requested {
		if !touches(k.Geohash) {
			out.requested = append(out.requested, k)
		}
	}
	return out
}

// freeze marks partitions as mid-migration (nil or empty lifts the freeze).
func (n *Node) freeze(parts map[geohash.Hash]bool) {
	if len(parts) == 0 {
		n.frozen.Store(nil)
		return
	}
	n.frozen.Store(&parts)
}

// popBarrier waits until every cache insert that started before the call has
// finished: taking the write side of popGate excludes all readers admitted
// earlier, and inserts that start afterwards see the new epoch.
func (n *Node) popBarrier() {
	n.popGate.Lock()
	//lint:ignore SA2001 write-acquire is the barrier; nothing to protect after it
	n.popGate.Unlock()
}

// --- hotspot handling (paper §VII) ---

// maybeHandoff checks the hotspot condition (pending queue over threshold,
// §VII-B1) and, respecting the cooldown, runs a clique handoff in the
// background.
func (n *Node) maybeHandoff() {
	cfg := n.cluster.cfg.Replication
	if !cfg.Enabled() || n.graph == nil {
		return
	}
	if len(n.requests) <= cfg.QueueThreshold {
		return
	}
	last := n.lastHandoff.Load()
	if time.Since(time.Unix(0, last)) < cfg.Cooldown {
		return
	}
	if !n.handoffActive.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer n.handoffActive.Store(false)
		// The cooldown starts only after a handoff that actually shipped
		// replicas; an attempt on a still-cold graph (nothing to hand off)
		// must not suppress retries while the hotspot persists.
		if n.runHandoff() > 0 {
			n.lastHandoff.Store(time.Now().UnixNano())
		}
	}()
}

// runHandoff executes §VII-B: pick the hottest cliques, find helpers via
// antipode selection, ship replicas, and record routes. It returns the
// number of cliques successfully replicated.
func (n *Node) runHandoff() int {
	cfg := n.cluster.cfg.Replication
	done := 0
	cliques := n.graph.TopCliques(cfg.CliqueDepth, cfg.MaxReplicaCells)
	ring := n.cluster.Ring()
	for _, cl := range cliques {
		n.rngMu.Lock()
		cands := replication.CandidateHelpers(cl.Root.Geohash, ring, n.id, cfg, n.rng)
		n.rngMu.Unlock()
		for _, cand := range cands {
			helper := n.cluster.node(cand)
			if helper == nil || !helper.askDistress(cl.Root, cl.Size()) {
				continue // negative ack: retry around the antipode
			}
			payload := n.graph.Snapshot(cl.Keys)
			if helper.askReplicate(cl.Root, cl.Keys, payload) {
				n.routing.Add(cl.Root, cand, cl.Keys, time.Now())
				n.handoffs.Add(1)
				mHandoffs.Inc()
				done++
			}
			break
		}
	}
	return done
}

// askDistress delivers a distress request to this node (as helper
// candidate) and reports its acknowledgement (§VII-B3).
func (n *Node) askDistress(root cell.Key, cells int) bool {
	n.cluster.cfg.Sleeper.Apply(n.cluster.cfg.Model.NetCost(approxKeyBytes))
	m := distressMsg{root: root, cells: cells, reply: make(chan bool, 1)}
	select {
	case n.control <- m:
	case <-n.done:
		return false
	}
	select {
	case ok := <-m.reply:
		return ok
	case <-n.done:
		return false
	}
}

// askReplicate ships a clique replica to this node (as helper) and reports
// acceptance (§VII-B4). Replication is infrequent, so its payload is priced
// at the exact wire-encoded size rather than the per-cell approximation the
// hot path uses.
func (n *Node) askReplicate(root cell.Key, keys []cell.Key, payload query.Result) bool {
	n.cluster.cfg.Sleeper.Apply(n.cluster.cfg.Model.NetCost(wire.ResultSize(payload)))
	m := replicateMsg{root: root, keys: keys, payload: payload, reply: make(chan bool, 1)}
	select {
	case n.control <- m:
	case <-n.done:
		return false
	}
	select {
	case ok := <-m.reply:
		return ok
	case <-n.done:
		return false
	}
}

// controlLoop serializes replication control traffic so guest admission
// decisions are race-free without locking the data path.
func (n *Node) controlLoop() {
	cfg := n.cluster.cfg.Replication
	for {
		select {
		case msg := <-n.control:
			switch m := msg.(type) {
			case distressMsg:
				// Accept unless hotspotted ourselves or out of guest room.
				ok := n.guest != nil &&
					len(n.requests) <= cfg.QueueThreshold &&
					n.guest.Len()+m.cells <= n.guestCapacity()
				if ok {
					mDistressAccepted.Inc()
				} else {
					mDistressRejected.Inc()
				}
				m.reply <- ok
			case replicateMsg:
				if n.guest == nil {
					m.reply <- false
					continue
				}
				n.guest.Put(m.payload)
				n.guestMu.Lock()
				n.guestCliques[m.root] = &guestEntry{keys: m.keys, lastUsed: time.Now()}
				n.guestMu.Unlock()
				m.reply <- true
			}
		case <-n.done:
			return
		}
	}
}

func (n *Node) guestCapacity() int {
	if n.cluster.cfg.GuestCapacity > 0 {
		return n.cluster.cfg.GuestCapacity
	}
	if n.cluster.cfg.Stash != nil && n.cluster.cfg.Stash.Capacity > 0 {
		return n.cluster.cfg.Stash.Capacity
	}
	return stash.DefaultConfig().Capacity
}

// touchGuestCliques refreshes the last-used stamp of guest cliques serving
// the given keys, keeping live replicas from being purged (§VII-D).
func (n *Node) touchGuestCliques(keys []cell.Key) {
	n.guestMu.Lock()
	defer n.guestMu.Unlock()
	if len(n.guestCliques) == 0 {
		return
	}
	now := time.Now()
	for _, e := range n.guestCliques {
		for _, k := range e.keys {
			if containsKey(keys, k) {
				e.lastUsed = now
				break
			}
		}
	}
}

func containsKey(keys []cell.Key, k cell.Key) bool {
	for _, c := range keys {
		if c == k {
			return true
		}
	}
	return false
}

// janitorLoop purges expired routing-table entries and unused guest cliques
// (paper §VII-D).
func (n *Node) janitorLoop() {
	cfg := n.cluster.cfg.Replication
	if !cfg.Enabled() {
		return
	}
	interval := cfg.Cooldown / 2
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			n.routing.Purge(now, cfg.RouteTTL)
			n.purgeGuests(now, cfg.GuestTTL)
		case <-n.done:
			return
		}
	}
}

func (n *Node) purgeGuests(now time.Time, ttl time.Duration) {
	if n.guest == nil {
		return
	}
	n.guestMu.Lock()
	defer n.guestMu.Unlock()
	for root, e := range n.guestCliques {
		if now.Sub(e.lastUsed) > ttl {
			for _, k := range e.keys {
				n.guest.Delete(k)
			}
			delete(n.guestCliques, root)
		}
	}
}
