package geohash

import (
	"fmt"
	"math"
	"math/bits"
)

// Hash is a geohash packed into 64 pointer-free bits: the Base32 digits sit
// left-aligned in bits 63..4 (first character in bits 63..59, five bits per
// character, up to MaxPrecision of them) and the length in bits 3..0.
//
// The layout is chosen so the algebra STASH needs is integer work:
//
//   - bit 63 is always the first longitude bit, so the column/row split
//     (XY) is one fixed-mask deinterleave whatever the precision;
//   - parent, child and prefix are a mask and a length change;
//   - uint64 order equals the lexicographic order of the text, because the
//     Base32 alphabet is in ASCII order and a prefix sorts before its
//     extensions (equal digits, smaller length).
//
// The zero value has length 0 and is not a valid geohash, which lets tables
// of keys use it as their empty slot. Text exists only at the edges: Pack
// parses it, String and AppendText print it.
type Hash uint64

const (
	lenMask   = 0xF
	digitBits = 5
	// axisBits is the width of one deinterleaved axis at MaxPrecision.
	axisBits = MaxPrecision * digitBits / 2
)

// pack parses geohash text held in a string or a byte slice.
func pack[S string | []byte](s S) (Hash, bool) {
	if len(s) == 0 || len(s) > MaxPrecision {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 128 || base32Index[c] < 0 {
			return 0, false
		}
		v = v<<digitBits | uint64(base32Index[c])
	}
	v <<= uint(digitBits * (MaxPrecision - len(s)))
	return Hash(v<<4 | uint64(len(s))), true
}

// Pack parses geohash text.
func Pack(s string) (Hash, error) {
	h, ok := pack(s)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrInvalid, s)
	}
	return h, nil
}

// PackBytes is Pack over a byte slice (wire decoders), without building the
// string first.
func PackBytes(b []byte) (Hash, error) {
	h, ok := pack(b)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrInvalid, string(b)) // the copy keeps b on the caller's stack
	}
	return h, nil
}

// MustPack is Pack for geohashes known to be valid; it panics otherwise.
// Intended for literals in tests and examples.
func MustPack(s string) Hash {
	h, err := Pack(s)
	if err != nil {
		panic(err)
	}
	return h
}

// Len returns the precision: the number of Base32 characters.
func (h Hash) Len() int { return int(h & lenMask) }

// Valid reports whether h is a well-formed geohash: a length in
// [1, MaxPrecision] and no digit bits beyond it.
func (h Hash) Valid() bool {
	n := h.Len()
	return n >= 1 && n <= MaxPrecision && uint64(h)&^lenMask&(1<<uint(64-digitBits*n)-1) == 0
}

// AppendText appends the geohash text to dst.
func (h Hash) AppendText(dst []byte) []byte {
	v := uint64(h)
	for i, n := 0, h.Len(); i < n; i++ {
		dst = append(dst, Base32[v>>59])
		v <<= digitBits
	}
	return dst
}

func (h Hash) String() string {
	var buf [MaxPrecision + 3]byte // room for the 15 a malformed length can claim
	return string(h.AppendText(buf[:0]))
}

// Prefix returns the first n characters of h; n is clamped to [0, Len].
// Prefix(0) is the zero Hash.
func (h Hash) Prefix(n int) Hash {
	if n >= h.Len() {
		return h
	}
	if n <= 0 {
		return 0
	}
	digits := uint64(h) &^ (1<<uint(64-digitBits*n) - 1)
	return Hash(digits | uint64(n))
}

// HasPrefix reports whether p is a prefix of h (p == h included).
func (h Hash) HasPrefix(p Hash) bool {
	return p.Len() <= h.Len() && h.Prefix(p.Len()) == p
}

// CommonPrefixLen returns how many leading characters h and o share.
func (h Hash) CommonPrefixLen(o Hash) int {
	n := bits.LeadingZeros64((uint64(h)^uint64(o))&^lenMask) / digitBits
	return min(n, h.Len(), o.Len())
}

// Parent returns the geohash one spatial resolution coarser; ok is false for
// single-character geohashes, which have no parent.
func (h Hash) Parent() (Hash, bool) {
	if h.Len() <= 1 {
		return 0, false
	}
	return h.Prefix(h.Len() - 1), true
}

// Child returns the i-th (Base32 order) of the 32 geohashes one resolution
// finer. h must be shorter than MaxPrecision.
func (h Hash) Child(i int) Hash {
	n := h.Len()
	digits := uint64(h)&^lenMask | uint64(i)<<uint(59-digitBits*n)
	return Hash(digits | uint64(n+1))
}

// Extensions returns every geohash of length n that extends h, in text
// order: 32^(n-Len) of them, or just h cut to n characters when it is already
// that long. The zero Hash extends to every geohash of length n.
func (h Hash) Extensions(n int) []Hash {
	out := make([]Hash, h.ExtensionCount(n))
	for i := range out {
		out[i] = h.Extension(n, i)
	}
	return out
}

// ExtensionCount returns len(h.Extensions(n)) without building the list.
func (h Hash) ExtensionCount(n int) int {
	if h.Len() >= n {
		return 1
	}
	return 1 << uint(digitBits*(n-h.Len()))
}

// Extension returns h.Extensions(n)[i] by arithmetic, so a caller walking the
// extensions — one of them, for a hash already n characters long — allocates
// nothing.
func (h Hash) Extension(n, i int) Hash {
	if h.Len() >= n {
		return h.Prefix(n)
	}
	return Hash(uint64(h)&^lenMask | uint64(i)<<uint(64-digitBits*n) | uint64(n))
}

// compact gathers the even-position bits of a 60-bit interleaved value into
// the low 30 bits.
func compact(v uint64) uint32 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0F0F0F0F0F0F0F0F
	v = (v | v>>4) & 0x00FF00FF00FF00FF
	v = (v | v>>8) & 0x0000FFFF0000FFFF
	v = (v | v>>16) & 0x00000000FFFFFFFF
	return uint32(v)
}

// spread is the inverse of compact: bit i of v moves to bit 2i.
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// XY returns the tile's column (west to east) and row (south to north) in
// the grid of its precision: x in [0, 2^lonBits), y in [0, 2^latBits).
func (h Hash) XY() (x, y uint32) {
	lonBits, latBits := lonLatBits(h.Len())
	v := uint64(h) >> 4 // 60 interleaved bits, longitude first (bit 59)
	return compact(v>>1) >> uint(axisBits-lonBits), compact(v) >> uint(axisBits-latBits)
}

// spreadLon and spreadLat place one axis index into its interleaved digit
// bits of a Hash; FromXY is their OR plus the length.
func spreadLon(x uint32, lonBits int) uint64 {
	return spread(x<<uint(axisBits-lonBits)) << 5
}

func spreadLat(y uint32, latBits int) uint64 {
	return spread(y<<uint(axisBits-latBits)) << 4
}

// FromXY is the inverse of XY at the given precision.
func FromXY(x, y uint32, precision int) Hash {
	lonBits, latBits := lonLatBits(precision)
	return Hash(spreadLon(x, lonBits) | spreadLat(y, latBits) | uint64(precision))
}

// Neighbor returns the same-precision tile adjacent to h in the given
// direction. Longitude wraps around the antimeridian; stepping past a pole
// returns ok=false.
func (h Hash) Neighbor(d Direction) (Hash, bool) {
	dLat, dLon := d.Offsets()
	lonBits, latBits := lonLatBits(h.Len())
	x, y := h.XY()
	ny := int64(y) + int64(dLat)
	if ny < 0 || ny >= 1<<uint(latBits) {
		return 0, false
	}
	nx := (x + uint32(dLon)) & (1<<uint(lonBits) - 1)
	return FromXY(nx, uint32(ny), h.Len()), true
}

// Neighbors writes the same-precision tiles adjacent to h into dst, clockwise
// from north, and returns how many there are: 8, or 5 for a tile in a pole
// row. It splits h into column and row once and spreads each of the three
// columns and rows involved once.
func (h Hash) Neighbors(dst *[8]Hash) int {
	lonBits, latBits := lonLatBits(h.Len())
	x, y := h.XY()
	var cols, rows [3]uint64 // by offset+1
	var rowOK [3]bool
	for o := 0; o < 3; o++ {
		cols[o] = spreadLon((x+uint32(o)-1)&(1<<uint(lonBits)-1), lonBits)
		if r := int64(y) + int64(o) - 1; r >= 0 && r < 1<<uint(latBits) {
			rows[o], rowOK[o] = spreadLat(uint32(r), latBits), true
		}
	}
	n := 0
	for d := North; d < numDirections; d++ {
		dLat, dLon := d.Offsets()
		if rowOK[dLat+1] {
			dst[n] = Hash(cols[dLon+1] | rows[dLat+1] | uint64(h.Len()))
			n++
		}
	}
	return n
}

// Antipode returns the tile diametrically opposite h's center, at the same
// precision.
func (h Hash) Antipode() Hash {
	lonBits, latBits := lonLatBits(h.Len())
	x, y := h.XY()
	x = (x + 1<<uint(lonBits-1)) & (1<<uint(lonBits) - 1)
	y = 1<<uint(latBits) - 1 - y
	return FromXY(x, y, h.Len())
}

// Box returns the tile's bounding box. Every bound is a dyadic fraction of
// the globe, exactly representable, so the result is bit-identical to
// bisecting character by character.
func (h Hash) Box() Box {
	lonBits, latBits := lonLatBits(h.Len())
	x, y := h.XY()
	w, ht := math.Ldexp(360, -lonBits), math.Ldexp(180, -latBits)
	return Box{
		MinLat: -90 + float64(y)*ht, MaxLat: -90 + float64(y+1)*ht,
		MinLon: -180 + float64(x)*w, MaxLon: -180 + float64(x+1)*w,
	}
}

// axisIndex returns the index of the cell of width size (a dyadic fraction
// of the axis) containing v, counted from lo, clamped to [0, n). The
// multiplication only estimates; the exact cell bounds settle it, so the
// answer equals what bisection gives. NaN lands in cell 0, as it did when
// every bisection comparison came out false.
func axisIndex(v, lo, size float64, n uint32) uint32 {
	i := uint32(0)
	if f := (v - lo) / size; f >= 1 {
		i = n - 1
		if f < float64(n) {
			i = uint32(f)
		}
	}
	for i > 0 && v < lo+float64(i)*size {
		i--
	}
	for i < n-1 && v >= lo+float64(i+1)*size {
		i++
	}
	return i
}

// EncodeHash returns the geohash of the given point at the given precision
// (clamped to [1, MaxPrecision]). Latitude is clamped to [-90,90); longitude
// is wrapped into [-180,180).
func EncodeHash(lat, lon float64, precision int) Hash {
	if precision < 1 {
		precision = 1
	}
	if precision > MaxPrecision {
		precision = MaxPrecision
	}
	lonBits, latBits := lonLatBits(precision)
	x := axisIndex(wrapLon(lon), -180, math.Ldexp(360, -lonBits), 1<<uint(lonBits))
	y := axisIndex(clampLat(lat), -90, math.Ldexp(180, -latBits), 1<<uint(latBits))
	return FromXY(x, y, precision)
}

// coverGrid returns the column and row ranges of the tiles intersecting the
// (clamped, validated) box: columns [x0, x0+cols), rows [y0, y0+rows).
func coverGrid(b Box, precision int) (x0, y0 uint32, cols, rows int, err error) {
	b = b.Clamp()
	if !b.Valid() {
		return 0, 0, 0, 0, fmt.Errorf("%w: cover box %v", ErrInvalid, b)
	}
	if precision < 1 || precision > MaxPrecision {
		return 0, 0, 0, 0, fmt.Errorf("%w: cover precision %d", ErrInvalid, precision)
	}
	lonBits, latBits := lonLatBits(precision)
	w, h := math.Ldexp(360, -lonBits), math.Ldexp(180, -latBits)
	nx, ny := uint32(1)<<uint(lonBits), uint32(1)<<uint(latBits)
	// Walk tile minimums (not centers): a box smaller than one tile must
	// still yield the tile that contains it.
	x0, y0 = axisIndex(b.MinLon, -180, w, nx), axisIndex(b.MinLat, -90, h, ny)
	for y := y0; y < ny && -90+float64(y)*h < b.MaxLat; y++ {
		rows++
	}
	for x := x0; x < nx && -180+float64(x)*w < b.MaxLon; x++ {
		cols++
	}
	return x0, y0, cols, rows, nil
}

// CoverHashes returns the tiles at the given precision that intersect the
// box, in row-major (south-to-north, west-to-east) order. The box is clamped
// to the globe. Boxes spanning the antimeridian are not supported (callers
// split them first); such boxes yield ErrInvalid.
func CoverHashes(b Box, precision int) ([]Hash, error) {
	x0, y0, cols, rows, err := coverGrid(b, precision)
	if err != nil {
		return nil, err
	}
	lonBits, latBits := lonLatBits(precision)
	out := make([]Hash, 0, cols*rows)
	for r := 0; r < rows; r++ {
		row := spreadLat(y0+uint32(r), latBits) | uint64(precision)
		for c := 0; c < cols; c++ {
			out = append(out, Hash(row|spreadLon(x0+uint32(c), lonBits)))
		}
	}
	return out, nil
}

// CoverCount returns the number of tiles CoverHashes would produce without
// materializing them. Useful for query planning and admission control.
func CoverCount(b Box, precision int) (int, error) {
	_, _, cols, rows, err := coverGrid(b, precision)
	return rows * cols, err
}

// CoverPolygonHashes returns the tiles at the given precision that intersect
// the polygon: the bounding-box cover filtered by polygon/tile intersection.
func CoverPolygonHashes(p Polygon, precision int) ([]Hash, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	candidates, err := CoverHashes(p.BoundingBox(), precision)
	if err != nil {
		return nil, err
	}
	out := candidates[:0]
	for _, h := range candidates {
		if p.IntersectsBox(h.Box()) {
			out = append(out, h)
		}
	}
	return out, nil
}
