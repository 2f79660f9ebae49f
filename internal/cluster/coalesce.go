package cluster

// Client-side request coalescing: the visual-exploration workloads the paper
// targets are dominated by overlapping viewports, so at high concurrency
// many coordinator shares are bound for the same owner node — often carrying
// the very same cell keys — within microseconds of each other. The coalescer
// holds the first fetch for a small admission window, merges every share
// that arrives for the same node in that window into one batched wire
// message with cross-caller key dedup, and demultiplexes the single reply to
// each waiter. One NetHop is paid per batch instead of per caller, and the
// deduplicated, prefix-delta-encoded key set shrinks NetByte.
//
// Cancellation contract: a waiter whose context expires abandons the batch
// without poisoning it — the batch keeps running for the remaining waiters
// under its own context, which is cancelled only when the LAST waiter has
// departed (so an all-abandoned batch against a dead node cannot leak its
// goroutine past the waiters' deadlines).

import (
	"context"
	"sync"
	"time"

	"stash/internal/cell"
	"stash/internal/dht"
	"stash/internal/obs"
	"stash/internal/query"
	"stash/internal/temporal"
	"stash/internal/wire"
)

// coalescer merges concurrent same-owner fetches that arrive within one
// admission window into a single batched node request.
//
// Batches are keyed by (node, hierarchy level), not node alone: every fetch
// carries keys of a single level (a query footprint is one level by
// construction), and the storage scan underneath rejects mixed-resolution
// key sets — merging two callers at different zoom levels into one wire
// message would turn two valid requests into one invalid one.
type coalescer struct {
	window time.Duration

	mu      sync.Mutex
	pending map[batchKey]*coalesceBatch
}

// batchKey identifies one admission window: one owner node at one hierarchy
// level, routed under one membership epoch. The epoch component keeps shares
// planned against different views out of the same wire message — a mixed
// batch would make the node's epoch validation bounce every rider, including
// the correctly-routed ones.
type batchKey struct {
	id    dht.NodeID
	sres  int
	tres  temporal.Resolution
	epoch uint64
}

func batchKeyFor(id dht.NodeID, epoch uint64, keys []cell.Key) batchKey {
	bk := batchKey{id: id, epoch: epoch}
	if len(keys) > 0 {
		bk.sres = keys[0].SpatialRes()
		bk.tres = keys[0].TemporalRes()
	}
	return bk
}

// coalesceBatch is one admission window's worth of fetches for one node.
// Mutable fields are guarded by the coalescer mutex until flush removes the
// batch from pending; after that only the flusher touches them, and waiters
// read res/err strictly after done closes.
type coalesceBatch struct {
	node *Node

	keys     []cell.Key            // deduplicated batch key set, admission order
	keySet   map[cell.Key]struct{} // membership for cross-caller dedup
	joined   int                   // waiters that ever joined (metrics)
	active   int                   // waiters still attached (cancellation refcount)
	rawKeys  int                   // keys requested including duplicates
	rawBytes int                   // sum of per-waiter uncoalesced request encodings
	flushed  bool                  // removed from pending; no more joiners

	ctx    context.Context    // batch-lifetime context, detached from any waiter
	cancel context.CancelFunc // fired when the last waiter departs
	done   chan struct{}      // closed when res/err are final
	res    query.Result
	err    error

	// prof accumulates the batch's node-side work when at least one joining
	// waiter is profiled (the batch ctx is detached, so the waiters' profiles
	// cannot ride along directly). After done closes, each profiled waiter
	// merges it — shared work is attributed to every query that rode the
	// batch, mirroring how each would have paid for it alone.
	prof *obs.QueryProfile
}

func newCoalescer(window time.Duration) *coalescer {
	return &coalescer{window: window, pending: map[batchKey]*coalesceBatch{}}
}

// fetch joins (or opens) the admission window for n's batch, waits for the
// batched reply, and returns the slice of it this caller asked for. A
// caller whose ctx expires first gets ctx.Err() while the batch runs on for
// the other waiters.
func (co *coalescer) fetch(ctx context.Context, n *Node, keys []cell.Key) (query.Result, error) {
	epoch, _ := epochFrom(ctx) // zero for epoch-less callers, a valid key component
	bk := batchKeyFor(n.id, epoch, keys)
	co.mu.Lock()
	b := co.pending[bk]
	if b == nil {
		bctx, cancel := context.WithCancel(context.Background())
		b = &coalesceBatch{
			node:   n,
			keySet: make(map[cell.Key]struct{}, len(keys)),
			ctx:    bctx,
			cancel: cancel,
			done:   make(chan struct{}),
		}
		co.pending[bk] = b
		time.AfterFunc(co.window, func() { co.flush(bk, b) })
	}
	for _, k := range keys {
		if _, dup := b.keySet[k]; !dup {
			b.keySet[k] = struct{}{}
			b.keys = append(b.keys, k)
		}
	}
	b.joined++
	b.active++
	b.rawKeys += len(keys)
	b.rawBytes += wire.KeysSize(keys)
	callerProf := obs.ProfileFromContext(ctx)
	if callerProf != nil && b.prof == nil {
		b.prof = obs.NewProfile()
	}
	co.mu.Unlock()

	select {
	case <-b.done:
		co.release(b)
		if callerProf != nil && b.err == nil {
			// b's fields are final once done closes (the close is the
			// happens-before edge).
			callerProf.AddCoalesce(len(b.keys), b.rawKeys-len(b.keys))
			callerProf.Merge(b.prof)
		}
		if b.err != nil {
			return query.Result{}, b.err
		}
		// Demux: project the caller's keys out of the batch result into a
		// pooled Result (the coordinator's fan-in recycles it after the
		// merge). Summaries are copied; histogram sets stay shared with the
		// batch result and the other waiters — safe, because they are
		// immutable by convention (see query.Result).
		out := query.GetResult(len(keys))
		for _, k := range keys {
			if s, ok := b.res.Cells[k]; ok {
				out.Set(k, s, b.res.Hists[k])
			}
		}
		return out, nil
	case <-ctx.Done():
		co.release(b)
		return query.Result{}, ctx.Err()
	}
}

// release detaches one waiter; the last one out cancels the batch context.
// Cancellation waits for the flush barrier so that an early-abandoned batch
// cannot poison waiters that join later in the same window.
func (co *coalescer) release(b *coalesceBatch) {
	co.mu.Lock()
	b.active--
	last := b.active == 0 && b.flushed
	co.mu.Unlock()
	if last {
		b.cancel()
	}
}

// flush closes the admission window: it removes the batch from pending (no
// more joiners), prices and records the coalescing win, issues the single
// batched node request under the batch context, and publishes the reply.
func (co *coalescer) flush(bk batchKey, b *coalesceBatch) {
	co.mu.Lock()
	if co.pending[bk] == b {
		delete(co.pending, bk)
	}
	b.flushed = true
	abandoned := b.active == 0
	joined, rawKeys, rawBytes := b.joined, b.rawKeys, b.rawBytes
	keys := b.keys
	prof := b.prof
	co.mu.Unlock()

	if abandoned {
		// Every waiter gave up inside the window; don't bill the node for a
		// request nobody wants.
		b.err = context.Canceled
		close(b.done)
		b.cancel()
		return
	}

	// Deterministic batch order; sorted keys also maximize the shared
	// prefixes the delta key encoding compresses away.
	wire.SortKeys(keys)

	mCoalesceBatches.Inc()
	mCoalesceBatchKeys.Observe(float64(len(keys)))
	mCoalesceBatchWaiters.Observe(float64(joined))
	if d := rawKeys - len(keys); d > 0 {
		mCoalesceDedupKeys.Add(int64(d))
	}
	if joined > 1 {
		mCoalesceHopsSaved.Add(int64(joined - 1))
	}
	// Encode the batched key set once (pooled buffer, prefix-delta form) to
	// price the message; the savings counter is the difference against what
	// each waiter's uncoalesced request would have encoded to.
	buf := wire.AppendKeysDelta(wire.GetBuf(), keys)
	if saved := rawBytes - len(buf); saved > 0 {
		mCoalesceBytesSaved.Add(int64(saved))
	}
	wire.PutBuf(buf)

	sctx := b.ctx
	if prof != nil {
		sctx = obs.ContextWithProfile(sctx, prof)
	}
	if bk.epoch != 0 {
		// The batch context is detached from the waiters, so the routing
		// epoch they shared must be re-attached for node-side validation.
		sctx = withEpoch(sctx, bk.epoch)
	}
	b.res, b.err = b.node.Submit(sctx, keys)
	close(b.done)
}
