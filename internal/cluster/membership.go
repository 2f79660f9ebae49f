package cluster

// Elastic membership: online node join/leave with warm cell handoff.
//
// The static partition map became an epoch-versioned dht.View; this file is
// the controller that moves the cluster from one view to the next without
// serving a wrong answer in between. A membership change runs three phases:
//
//  1. freeze — the partitions about to move are frozen on their old owners,
//     so background cache population cannot re-insert cells behind the
//     migrator's back (queries keep being served from disk the whole time);
//  2. migrate — every moved partition's resident cells are extracted from
//     the old owner's STASH shard, shipped over the pooled wire codec
//     (priced like any other transfer), and batch-inserted on the new
//     owner, so the cache arrives warm instead of refilling from disk;
//     coarse per-node partials, whose summaries bake in the ownership set
//     they were computed under, are dropped on every affected node;
//  3. flip — the new view is installed atomically, every Galileo shard
//     reassigns block ownership to the new ring, helper routes invalidated
//     by the change are purged, and the freeze lifts.
//
// Requests carry the epoch they were routed under; nodes bounce mismatches
// with a retriable ErrNotOwner so coordinators re-plan on a fresh view. A
// query in flight across the flip is never silently wrong: at worst it is
// re-planned or reported as honest partial coverage.

import (
	"time"

	"stash/internal/cell"
	"stash/internal/dht"
	"stash/internal/geohash"
	"stash/internal/obs"
	"stash/internal/query"
	"stash/internal/replication"
	"stash/internal/wire"
)

// rebalanceState is the controller's progress ledger, guarded by rbMu.
// Counters are cumulative across the cluster's lifetime.
type rebalanceState struct {
	active     bool
	phase      string
	lastChange string
	lastDur    time.Duration
	changes    int64
	moved      int64
	cells      int64
	bytes      int64
	coarse     int64
	rolledBack int64
	routes     int64
}

// RebalanceStatus is the admin-surface snapshot of membership state and
// rebalance progress. Counters are cumulative since the cluster started.
type RebalanceStatus struct {
	Epoch           uint64   `json:"epoch"`
	Members         []string `json:"members"`
	Active          bool     `json:"active"`
	Phase           string   `json:"phase"`
	Changes         int64    `json:"changes"`
	LastChange      string   `json:"lastChange,omitempty"`
	LastDurationMS  float64  `json:"lastDurationMs"`
	MovedPartitions int64    `json:"movedPartitions"`
	CellsMigrated   int64    `json:"cellsMigrated"`
	BytesMigrated   int64    `json:"bytesMigrated"`
	CoarseDropped   int64    `json:"coarseDropped"`
	RolledBack      int64    `json:"rolledBack"`
	RoutesPurged    int64    `json:"routesPurged"`
}

// RebalanceStatus reports the current membership view and cumulative
// handoff progress.
func (c *Cluster) RebalanceStatus() RebalanceStatus {
	view := c.View()
	ids := view.Ring().Nodes()
	members := make([]string, len(ids))
	for i, id := range ids {
		members[i] = id.String()
	}
	c.rbMu.Lock()
	defer c.rbMu.Unlock()
	phase := c.rb.phase
	if phase == "" {
		phase = "idle"
	}
	return RebalanceStatus{
		Epoch:           view.Epoch(),
		Members:         members,
		Active:          c.rb.active,
		Phase:           phase,
		Changes:         c.rb.changes,
		LastChange:      c.rb.lastChange,
		LastDurationMS:  float64(c.rb.lastDur) / float64(time.Millisecond),
		MovedPartitions: c.rb.moved,
		CellsMigrated:   c.rb.cells,
		BytesMigrated:   c.rb.bytes,
		CoarseDropped:   c.rb.coarse,
		RolledBack:      c.rb.rolledBack,
		RoutesPurged:    c.rb.routes,
	}
}

func (c *Cluster) setPhase(active bool, phase string) {
	c.rbMu.Lock()
	c.rb.active = active
	c.rb.phase = phase
	c.rbMu.Unlock()
}

// Join adds a fresh node to the cluster (smallest unused id above the current
// maximum), warms it up by handing off the partitions it claims, and flips
// the membership epoch. It returns the new node's id. Serialized with Leave;
// queries keep running throughout.
func (c *Cluster) Join() (dht.NodeID, error) {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.isStopped() {
		return 0, ErrStopped
	}
	view := c.view.Load()
	var id dht.NodeID
	for _, m := range view.Ring().Nodes() {
		if m >= id {
			id = m + 1
		}
	}
	next, moves, err := view.AddNode(id)
	if err != nil {
		return 0, err
	}
	n := newNode(id, c, c.gen)
	if c.hotEnabled {
		hotCap, hotDecay := c.cfg.HotKeyCapacity, c.cfg.HotKeyDecay
		if hotCap == 0 {
			hotCap = DefaultHotKeyCapacity
		}
		if hotDecay == 0 {
			hotDecay = DefaultHotKeyDecay
		}
		n.hot = obs.NewTopK[cell.Key](hotCap, hotDecay)
	}
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if started {
		n.start(c.cfg.Workers)
	}
	// The joiner enters the member table before the handoff so broadcast
	// invalidations (UpdateBlock during the migration) reach it, and the
	// shipped cells it accumulates stay honest.
	c.addMember(n)
	c.rebalance(next, moves, "join "+id.String())
	mMembershipJoins.Inc()
	return id, nil
}

// Leave removes a node: its partitions are handed off warm to their new
// owners, the epoch flips, and only then is the node retired — so clients
// holding the old view get retriable not-owner bounces, never lost requests.
func (c *Cluster) Leave(id dht.NodeID) error {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.isStopped() {
		return ErrStopped
	}
	view := c.view.Load()
	next, moves, err := view.RemoveNode(id)
	if err != nil {
		return err
	}
	c.rebalance(next, moves, "leave "+id.String())
	if n := c.removeMember(id); n != nil {
		n.stop()
	}
	mMembershipLeaves.Inc()
	return nil
}

// addMember installs a node in the copy-on-write member table (memberMu held).
func (c *Cluster) addMember(n *Node) {
	old := c.nodeMap()
	next := make(map[dht.NodeID]*Node, len(old)+1)
	for id, v := range old {
		next[id] = v
	}
	next[n.id] = n
	c.nodes.Store(&next)
}

// removeMember drops a node from the copy-on-write member table and returns
// it (memberMu held).
func (c *Cluster) removeMember(id dht.NodeID) *Node {
	old := c.nodeMap()
	n := old[id]
	if n == nil {
		return nil
	}
	next := make(map[dht.NodeID]*Node, len(old)-1)
	for mid, v := range old {
		if mid != id {
			next[mid] = v
		}
	}
	c.nodes.Store(&next)
	return n
}

// rebalance drives the three-phase handoff from the current view to next.
// Callers hold memberMu, so at most one rebalance runs at a time.
func (c *Cluster) rebalance(next *dht.View, moves []dht.Move, desc string) {
	start := time.Now()
	plen := c.Ring().PrefixLen()

	movedByFrom := map[dht.NodeID]map[geohash.Hash]bool{}
	changedByNode := map[dht.NodeID]map[geohash.Hash]bool{}
	destOwner := map[geohash.Hash]dht.NodeID{}
	movedSet := map[geohash.Hash]bool{}
	mark := func(byNode map[dht.NodeID]map[geohash.Hash]bool, id dht.NodeID, p geohash.Hash) {
		m := byNode[id]
		if m == nil {
			m = map[geohash.Hash]bool{}
			byNode[id] = m
		}
		m[p] = true
	}
	for _, mv := range moves {
		mark(movedByFrom, mv.From, mv.Partition)
		mark(changedByNode, mv.From, mv.Partition)
		mark(changedByNode, mv.To, mv.Partition)
		destOwner[mv.Partition] = mv.To
		movedSet[mv.Partition] = true
	}

	// Phase 1: freeze the moved partitions on their old owners. Queries keep
	// being served (from cache until extraction, from disk after); only
	// background re-population of the moving cells is filtered out.
	c.setPhase(true, "freeze")
	for from, parts := range movedByFrom {
		if n := c.node(from); n != nil {
			n.freeze(parts)
		}
	}

	// Phase 2: warm handoff. Extraction double-checks the ingest version:
	// cells in flight between extract and insert would miss a concurrent
	// block invalidation (the new owner's PLM marks them fresh on insert),
	// so if ingest advanced, everything shipped is conservatively dropped —
	// a cache-warmth loss, never a wrong answer.
	c.setPhase(true, "migrate")
	v0 := c.ingestVersion.Load()
	var cells, bytes, coarse, rolled, routes int64
	inserted := map[dht.NodeID][]cell.Key{}
	for from, parts := range movedByFrom {
		n := c.node(from)
		if n == nil || n.graph == nil {
			continue
		}
		res := n.graph.ExtractPartitions(plen, parts)
		if len(res.Cells) == 0 {
			continue
		}
		perDest := map[dht.NodeID]query.Result{}
		for k, s := range res.Cells {
			dest := destOwner[k.Geohash.Prefix(plen)]
			r, ok := perDest[dest]
			if !ok {
				r = query.NewResult()
				perDest[dest] = r
			}
			r.Add(k, s)
		}
		for dest, payload := range perDest {
			dn := c.node(dest)
			if dn == nil || dn.graph == nil {
				continue
			}
			// Ship over the wire codec: encode once into a pooled buffer,
			// pay the network cost of the exact encoded size, decode on the
			// receiving side, batch-insert.
			buf := wire.AppendResult(wire.GetBuf(), payload)
			c.cfg.Sleeper.Apply(c.cfg.Model.NetCost(len(buf)))
			shipped, err := wire.DecodeResult(buf)
			nb := len(buf)
			wire.PutBuf(buf)
			if err != nil {
				continue // defensive: we just encoded it
			}
			dn.graph.Put(shipped)
			cells += int64(len(shipped.Cells))
			bytes += int64(nb)
			keys := inserted[dest]
			for k := range shipped.Cells {
				keys = append(keys, k)
			}
			inserted[dest] = keys
		}
	}
	// Coarse cells cached on any node whose owned set changes are per-node
	// partials over the old ownership — migrating them would double-count,
	// keeping them would over- or under-count. Drop them; they rebuild from
	// the new ownership on next access.
	for id, parts := range changedByNode {
		if n := c.node(id); n != nil && n.graph != nil {
			coarse += int64(n.graph.DropCoarsePartials(plen, parts))
		}
	}
	if c.ingestVersion.Load() != v0 {
		for dest, keys := range inserted {
			if dn := c.node(dest); dn != nil && dn.graph != nil {
				for _, k := range keys {
					dn.graph.Delete(k)
				}
				rolled += int64(len(keys))
			}
		}
	}

	// Phase 3: flip. Install the view (one atomic store — every subsequent
	// routing decision and epoch check sees the new membership), repoint
	// every Galileo shard's block ownership, purge helper routes the change
	// invalidated, then drain in-flight cache inserts and re-sweep coarse
	// partials that landed between the first sweep and the flip.
	c.setPhase(true, "flip")
	c.view.Store(next)
	mEpoch.Set(int64(next.Epoch()))
	newRing := next.Ring()
	members := map[dht.NodeID]bool{}
	for _, id := range newRing.Nodes() {
		members[id] = true
	}
	for _, n := range c.nodeMap() {
		n.store.UpdateRing(newRing)
		purged := n.routing.PurgeWhere(func(r replication.Route) bool {
			return movedSet[newRing.Partition(r.Root.Geohash)] || !members[r.Helper]
		})
		routes += int64(purged)
	}
	for id, parts := range changedByNode {
		if n := c.node(id); n != nil && n.graph != nil {
			n.popBarrier()
			coarse += int64(n.graph.DropCoarsePartials(plen, parts))
		}
	}
	for from := range movedByFrom {
		if n := c.node(from); n != nil {
			n.freeze(nil)
		}
	}

	dur := time.Since(start)
	mHandoffDur.ObserveDuration(dur)
	mHandoffCells.Add(cells)
	mHandoffBytes.Add(bytes)
	mHandoffCoarse.Add(coarse)
	mHandoffRolledBack.Add(rolled)
	mRoutesPurged.Add(routes)

	c.rbMu.Lock()
	c.rb.active = false
	c.rb.phase = "idle"
	c.rb.lastChange = desc
	c.rb.lastDur = dur
	c.rb.changes++
	c.rb.moved += int64(len(moves))
	c.rb.cells += cells
	c.rb.bytes += bytes
	c.rb.coarse += coarse
	c.rb.rolledBack += rolled
	c.rb.routes += routes
	c.rbMu.Unlock()
}
