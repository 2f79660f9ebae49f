package stash

import (
	"sync"
	"sync/atomic"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/temporal"
)

// BlockRef names a backing-store block — a geohash partition prefix plus a
// day — without tying the cache to a particular storage engine. It matches
// galileo.BlockID structurally but keeps STASH storage-agnostic, as the
// paper requires of the middleware.
type BlockRef struct {
	Prefix string
	Day    temporal.Label
}

// staleBlock is an invalidated block: its prefix packed, the form the overlap
// test compares cell keys against, and the epoch of the invalidation.
type staleBlock struct {
	prefix geohash.Hash
	day    temporal.Label
	epoch  int64
}

// staleBlocks is an immutable snapshot of the stale-block table.
type staleBlocks []staleBlock

// pack converts a block reference for the stale table. An unparseable prefix
// packs to the zero Hash, which prefixes every geohash: such an invalidation
// errs wide, never narrow.
func (b BlockRef) pack() staleBlock {
	h, _ := geohash.Pack(b.Prefix)
	return staleBlock{prefix: h, day: b.Day}
}

// PLM is the precision-level map (paper §IV-D): it associates the cells held
// in memory at each level with the backing data blocks, and tracks which
// blocks have been invalidated by updates so stale summaries are recomputed
// on next access.
//
// Residency is not a second table: a cell is present exactly when its graph
// has a record for it, and the record carries the residency epoch. What the
// PLM itself holds is the epoch counter and the stale-block table, published
// as an immutable snapshot so the hit path reads it without a lock.
//
// Staleness is epoch-based: marking a block stale advances the epoch and
// stamps the block with it, and a cell is stale only if it became resident
// BEFORE an overlapping block's invalidation. A cell recomputed after the
// update is therefore immediately current, while the block record keeps
// invalidating other, not-yet-recomputed cells.
//
// A PLM belongs to the Graph that made it and is safe for concurrent use.
type PLM struct {
	g     *Graph
	mu    sync.Mutex   // serializes writers of the stale table
	epoch atomic.Int64 // advanced by MarkStale, stamped on inserted records
	stale atomic.Pointer[staleBlocks]
}

// blocks returns the current stale-block snapshot (nil when nothing is
// invalidated — the overwhelmingly common case, and a single atomic load).
func (p *PLM) blocks() staleBlocks {
	if b := p.stale.Load(); b != nil {
		return *b
	}
	return nil
}

// covers reports whether any invalidation newer than cellEpoch overlaps the
// cell.
func (bs staleBlocks) covers(k cell.Key, cellEpoch int64) bool {
	for _, b := range bs {
		if b.epoch <= cellEpoch {
			continue
		}
		// Spatial overlap: one geohash must prefix the other.
		if (k.Geohash.HasPrefix(b.prefix) || b.prefix.HasPrefix(k.Geohash)) && k.Time.Overlaps(b.day) {
			return true
		}
	}
	return false
}

// publish installs a new stale table. Callers hold p.mu.
func (p *PLM) publish(bs staleBlocks) {
	if len(bs) == 0 {
		p.stale.Store(nil)
		return
	}
	p.stale.Store(&bs)
}

// without returns a copy of the table with every record of the block removed.
func (bs staleBlocks) without(b staleBlock) staleBlocks {
	out := make(staleBlocks, 0, len(bs)+1)
	for _, e := range bs {
		if e.prefix != b.prefix || e.day != b.day {
			out = append(out, e)
		}
	}
	return out
}

// MarkStale records that a backing block changed: every cell resident
// *before this call* whose bounds draw on the block must be recomputed
// before it is served again (paper: "the PLM can be adjusted during an
// update ... so that stale data summaries are recomputed in case of future
// access").
func (p *PLM) MarkStale(b BlockRef) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sb := b.pack()
	sb.epoch = p.epoch.Add(1)
	p.publish(append(p.blocks().without(sb), sb))
}

// ClearStale drops a block's invalidation record (e.g. once every affected
// consumer has recomputed, or after a retention period).
func (p *PLM) ClearStale(b BlockRef) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.publish(p.blocks().without(b.pack()))
}

// StaleCount returns the number of currently invalidated blocks.
func (p *PLM) StaleCount() int { return len(p.blocks()) }

// Present reports whether a cell is resident (regardless of staleness).
func (p *PLM) Present(k cell.Key) bool {
	s := p.g.stripeFor(k)
	p.g.lockStripe(s)
	defer s.mu.Unlock()
	return s.find(k) != nil
}

// IsStale reports whether the cell is resident but invalidated by a later
// block update. Non-resident cells are not stale (they are just absent).
func (p *PLM) IsStale(k cell.Key) bool {
	stale := p.blocks()
	if stale == nil {
		return false
	}
	s := p.g.stripeFor(k)
	p.g.lockStripe(s)
	defer s.mu.Unlock()
	r := s.find(k)
	return r != nil && stale.covers(k, r.epoch)
}

// Missing filters the given footprint to the keys not resident (or resident
// but stale), in request order — the PLM's core job: identifying precisely
// which chunks a query evaluation still needs from the backing store. It
// reads the same records GetBatch serves from, so the two always agree.
func (p *PLM) Missing(keys []cell.Key) []cell.Key {
	if len(keys) == 0 {
		return nil
	}
	sc := scratchPool.Get().(*batchScratch)
	defer putScratch(sc)
	sc.missed = resized(sc.missed, len(keys))
	clear(sc.missed)
	nMiss := 0
	stale := p.blocks()
	sc.group(p.g, keys)
	p.g.eachGroup(sc, func(s *stripe, idx []int32) {
		for _, i := range idx {
			if r := s.find(keys[i]); r == nil || stale.covers(keys[i], r.epoch) {
				sc.missed[i] = true
				nMiss++
			}
		}
	})
	return sc.missing(keys, nMiss)
}

// Completeness returns the fraction of the given footprint resident and
// fresh in memory, in [0,1]. An empty footprint is complete.
func (p *PLM) Completeness(keys []cell.Key) float64 {
	if len(keys) == 0 {
		return 1
	}
	missing := len(p.Missing(keys))
	return float64(len(keys)-missing) / float64(len(keys))
}
