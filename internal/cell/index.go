package cell

// Index is an open-addressing hash table from cell keys to non-negative int32
// rows: linear probing on Key.Hash(), a power-of-two slot count kept at most
// 3/4 full, backward-shift deletion so no tombstones accumulate. A slot is the
// 16-byte key and its row, so a probe touches nothing but the table; zeroed
// memory is an empty table.
//
// It is the repo's one key -> row structure: a graph stripe's record slab, a
// query.ColumnarResult's arena, a storage scan's accumulator and the scratch
// key sets of a batched request all sit behind one. Rows mean whatever the
// owner stores there; a user that only needs membership ignores them.
//
// The zero value is an empty index ready for use. An Index is not safe for
// concurrent mutation; concurrent Get calls alone are safe.
type Index struct {
	slots []indexSlot
	n     int
}

// indexSlot holds row+1 so that the zero slot is the empty one.
type indexSlot struct {
	key Key
	ref uint32
}

// minIndexSlots is the smallest table allocated.
const minIndexSlots = 16

// Len returns the number of keys held.
func (ix *Index) Len() int { return ix.n }

// slotsFor returns the power-of-two slot count that holds n keys at 3/4 load.
func slotsFor(n int) int {
	want := minIndexSlots
	for 3*want < 4*n {
		want <<= 1
	}
	return want
}

// Reset empties the index and sizes it for n keys. A table that grew on
// earlier use is kept (regrowing on every reuse would reallocate), but not
// what one far larger use left behind: clearing is linear in the size kept.
func (ix *Index) Reset(n int) {
	want := slotsFor(n)
	if cap(ix.slots) < want {
		ix.slots = make([]indexSlot, want)
	} else {
		ix.slots = ix.slots[:min(cap(ix.slots), 4*want)]
		clear(ix.slots)
	}
	ix.n = 0
}

// Get returns the row stored for k; ok is false when k is absent.
func (ix *Index) Get(k Key) (row int32, ok bool) {
	if ix.n == 0 {
		return 0, false
	}
	mask := uint64(len(ix.slots) - 1)
	for i := k.Hash() & mask; ; i = (i + 1) & mask {
		switch s := &ix.slots[i]; {
		case s.ref == 0:
			return 0, false
		case s.key == k:
			return int32(s.ref - 1), true
		}
	}
}

// GetOrInsert returns the row stored for k, first storing row when k is
// absent; inserted reports which.
func (ix *Index) GetOrInsert(k Key, row int32) (_ int32, inserted bool) {
	if 4*(ix.n+1) > 3*len(ix.slots) {
		ix.grow()
	}
	mask := uint64(len(ix.slots) - 1)
	for i := k.Hash() & mask; ; i = (i + 1) & mask {
		switch s := &ix.slots[i]; {
		case s.ref == 0:
			*s = indexSlot{key: k, ref: uint32(row) + 1}
			ix.n++
			return row, true
		case s.key == k:
			return int32(s.ref - 1), false
		}
	}
}

// Set replaces the row stored for k; it does nothing when k is absent.
func (ix *Index) Set(k Key, row int32) {
	if ix.n == 0 {
		return
	}
	mask := uint64(len(ix.slots) - 1)
	for i := k.Hash() & mask; ix.slots[i].ref != 0; i = (i + 1) & mask {
		if s := &ix.slots[i]; s.key == k {
			s.ref = uint32(row) + 1
			return
		}
	}
}

// Delete removes k and returns the row it held; ok is false when k is absent.
// The slots after it in the probe run shift back over the hole, so lookups
// never meet a tombstone.
func (ix *Index) Delete(k Key) (row int32, ok bool) {
	if ix.n == 0 {
		return 0, false
	}
	mask := uint64(len(ix.slots) - 1)
	i := k.Hash() & mask
	for ix.slots[i].ref == 0 || ix.slots[i].key != k {
		if ix.slots[i].ref == 0 {
			return 0, false
		}
		i = (i + 1) & mask
	}
	row = int32(ix.slots[i].ref - 1)
	for j := (i + 1) & mask; ix.slots[j].ref != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home slot lies
		// cyclically in (i, j]: then the hole is before where its probe
		// starts.
		if home := ix.slots[j].key.Hash() & mask; (j-home)&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = indexSlot{}
	ix.n--
	return row, true
}

// Reserve grows the table, if need be, so that it holds n keys without
// growing again: an owner that knows its capacity (a slab's chunk count) pays
// for one table per doubling of it instead of one per doubling from the
// minimum.
func (ix *Index) Reserve(n int) {
	if want := slotsFor(n); want > len(ix.slots) {
		ix.rehash(want)
	}
}

// grow doubles the table (from nothing, to minIndexSlots).
func (ix *Index) grow() { ix.rehash(max(2*len(ix.slots), minIndexSlots)) }

// rehash moves every key to a fresh table of the given slot count.
func (ix *Index) rehash(slots int) {
	old := ix.slots
	ix.slots = make([]indexSlot, slots)
	mask := uint64(len(ix.slots) - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := s.key.Hash() & mask
		for ix.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = s
	}
}
