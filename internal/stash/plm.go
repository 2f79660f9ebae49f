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

// staleBlock is a BlockRef with its prefix packed, the form the overlap test
// compares cell keys against.
type staleBlock struct {
	prefix geohash.Hash
	day    temporal.Label
}

// pack converts a block reference for the stale table. An unparseable prefix
// packs to the zero Hash, which prefixes every geohash: such an invalidation
// errs wide, never narrow.
func (b BlockRef) pack() staleBlock {
	h, _ := geohash.Pack(b.Prefix)
	return staleBlock{prefix: h, day: b.Day}
}

// PLM is the precision-level map (paper §IV-D): a memory-resident bitmap
// that associates the cells held in memory at each level with the backing
// data blocks, and tracks which blocks have been invalidated by updates so
// stale summaries are recomputed on next access.
//
// Staleness is epoch-based: marking a block stale stamps it with the current
// epoch, and a cell is stale only if it became resident BEFORE an
// overlapping block's invalidation. A cell recomputed after the update is
// therefore immediately current, while the block record keeps invalidating
// other, not-yet-recomputed cells.
//
// The zero value is not ready; use NewPLM. PLM is safe for concurrent use.
type PLM struct {
	mu      sync.Mutex
	epoch   int64
	present [cell.NumLevels]map[cell.Key]int64
	stale   map[staleBlock]int64
	// staleN mirrors len(stale) atomically so the hot read path (IsStale on
	// every cache hit, called under a graph stripe lock) skips the PLM mutex
	// entirely whenever no invalidation is outstanding — the overwhelmingly
	// common case.
	staleN atomic.Int64
}

// NewPLM returns an empty precision-level map.
func NewPLM() *PLM {
	return &PLM{stale: map[staleBlock]int64{}}
}

// MarkPresent records that a cell is resident in memory and current as of
// now.
func (p *PLM) MarkPresent(k cell.Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lvl := k.Level()
	if lvl < 0 || lvl >= cell.NumLevels {
		return
	}
	if p.present[lvl] == nil {
		p.present[lvl] = map[cell.Key]int64{}
	}
	p.epoch++
	p.present[lvl][k] = p.epoch
}

// MarkAbsent records that a cell left memory.
func (p *PLM) MarkAbsent(k cell.Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lvl := k.Level()
	if lvl < 0 || lvl >= cell.NumLevels || p.present[lvl] == nil {
		return
	}
	delete(p.present[lvl], k)
}

// Present reports whether a cell is resident (regardless of staleness).
func (p *PLM) Present(k cell.Key) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	lvl := k.Level()
	if lvl < 0 || lvl >= cell.NumLevels || p.present[lvl] == nil {
		return false
	}
	_, ok := p.present[lvl][k]
	return ok
}

// Missing filters the given footprint to the keys not resident (or resident
// but stale) — the PLM's core job: identifying precisely which chunks a
// query evaluation still needs from the backing store.
func (p *PLM) Missing(keys []cell.Key) []cell.Key {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []cell.Key
	for _, k := range keys {
		lvl := k.Level()
		if lvl < 0 || lvl >= cell.NumLevels || p.present[lvl] == nil {
			out = append(out, k)
			continue
		}
		epoch, ok := p.present[lvl][k]
		if !ok || p.isStaleLocked(k, epoch) {
			out = append(out, k)
		}
	}
	return out
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

// MarkStale records that a backing block changed: every cell resident
// *before this call* whose bounds draw on the block must be recomputed
// before it is served again (paper: "the PLM can be adjusted during an
// update ... so that stale data summaries are recomputed in case of future
// access").
func (p *PLM) MarkStale(b BlockRef) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch++
	sb := b.pack()
	if _, exists := p.stale[sb]; !exists {
		p.staleN.Add(1)
	}
	p.stale[sb] = p.epoch
}

// ClearStale drops a block's invalidation record (e.g. once every affected
// consumer has recomputed, or after a retention period).
func (p *PLM) ClearStale(b BlockRef) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sb := b.pack()
	if _, exists := p.stale[sb]; exists {
		p.staleN.Add(-1)
	}
	delete(p.stale, sb)
}

// StaleCount returns the number of currently invalidated blocks.
func (p *PLM) StaleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.stale)
}

// IsStale reports whether the cell is resident but invalidated by a later
// block update. Non-resident cells are not stale (they are just absent).
// With no outstanding invalidations the check is a single atomic load.
func (p *PLM) IsStale(k cell.Key) bool {
	if p.staleN.Load() == 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	lvl := k.Level()
	if lvl < 0 || lvl >= cell.NumLevels || p.present[lvl] == nil {
		return false
	}
	epoch, ok := p.present[lvl][k]
	if !ok {
		return false
	}
	return p.isStaleLocked(k, epoch)
}

// isStaleLocked reports whether any invalidation newer than cellEpoch
// overlaps the cell. Callers hold p.mu.
func (p *PLM) isStaleLocked(k cell.Key, cellEpoch int64) bool {
	for b, blockEpoch := range p.stale {
		if blockEpoch <= cellEpoch {
			continue
		}
		// Spatial overlap: one geohash must prefix the other.
		if (k.Geohash.HasPrefix(b.prefix) || b.prefix.HasPrefix(k.Geohash)) && k.Time.Overlaps(b.day) {
			return true
		}
	}
	return false
}
