// Package geohash implements the Geohash geocoding system used by STASH to
// label, partition and relate spatial extents.
//
// A geohash is a Base32 string; every additional character multiplies the
// spatial resolution by 32. STASH leans on three algebraic properties of the
// encoding, all provided here:
//
//   - prefix containment: a geohash's bounding box fully encloses the boxes of
//     all geohashes that extend it (hierarchical edges),
//   - adjacency: the 8 same-length neighbors of a geohash tile the immediate
//     spatial neighborhood (lateral edges),
//   - coverage: any query rectangle can be tiled by a finite set of
//     fixed-precision geohashes (query footprint enumeration).
package geohash

import (
	"errors"
	"fmt"
	"math"
)

// Base32 is the geohash alphabet. Note the absence of a, i, l and o.
const Base32 = "0123456789bcdefghjkmnpqrstuvwxyz"

// MaxPrecision is the longest geohash this package produces or accepts. A
// 12-character geohash is ~3.7cm x 1.9cm at the equator, far below anything a
// visual-analytics workload requests.
const MaxPrecision = 12

// BranchFactor is the number of children a geohash splits into when its
// precision increases by one (the paper's "32 nested Geohashes").
const BranchFactor = 32

var base32Index = func() [128]int8 {
	var idx [128]int8
	for i := range idx {
		idx[i] = -1
	}
	for i := 0; i < len(Base32); i++ {
		idx[Base32[i]] = int8(i)
	}
	return idx
}()

// ErrInvalid reports a malformed geohash string.
var ErrInvalid = errors.New("geohash: invalid geohash")

// Box is a latitude/longitude bounding box. Min bounds are inclusive, max
// bounds are exclusive (except at the +90/+180 edges of the globe), matching
// how geohash tiles partition the globe without overlap.
type Box struct {
	MinLat, MaxLat float64
	MinLon, MaxLon float64
}

// Center returns the center point of the box.
func (b Box) Center() (lat, lon float64) {
	return (b.MinLat + b.MaxLat) / 2, (b.MinLon + b.MaxLon) / 2
}

// Width returns the longitudinal extent of the box in degrees.
func (b Box) Width() float64 { return b.MaxLon - b.MinLon }

// Height returns the latitudinal extent of the box in degrees.
func (b Box) Height() float64 { return b.MaxLat - b.MinLat }

// Area returns the box area in square degrees. It is a planar approximation,
// used only to compare relative query footprints.
func (b Box) Area() float64 { return b.Width() * b.Height() }

// Contains reports whether the point lies inside the box.
func (b Box) Contains(lat, lon float64) bool {
	return lat >= b.MinLat && lat < b.MaxLat && lon >= b.MinLon && lon < b.MaxLon
}

// ContainsBox reports whether o lies entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	return o.MinLat >= b.MinLat && o.MaxLat <= b.MaxLat &&
		o.MinLon >= b.MinLon && o.MaxLon <= b.MaxLon
}

// Intersects reports whether the two boxes share any area.
func (b Box) Intersects(o Box) bool {
	return b.MinLat < o.MaxLat && o.MinLat < b.MaxLat &&
		b.MinLon < o.MaxLon && o.MinLon < b.MaxLon
}

// Intersection returns the overlapping region of two boxes and whether any
// overlap exists.
func (b Box) Intersection(o Box) (Box, bool) {
	r := Box{
		MinLat: math.Max(b.MinLat, o.MinLat),
		MaxLat: math.Min(b.MaxLat, o.MaxLat),
		MinLon: math.Max(b.MinLon, o.MinLon),
		MaxLon: math.Min(b.MaxLon, o.MaxLon),
	}
	if r.MinLat >= r.MaxLat || r.MinLon >= r.MaxLon {
		return Box{}, false
	}
	return r, true
}

// Clamp restricts the box to valid globe coordinates.
func (b Box) Clamp() Box {
	b.MinLat = math.Max(b.MinLat, -90)
	b.MaxLat = math.Min(b.MaxLat, 90)
	b.MinLon = math.Max(b.MinLon, -180)
	b.MaxLon = math.Min(b.MaxLon, 180)
	return b
}

// Valid reports whether the box has positive area and lies on the globe.
func (b Box) Valid() bool {
	return b.MinLat < b.MaxLat && b.MinLon < b.MaxLon &&
		b.MinLat >= -90 && b.MaxLat <= 90 && b.MinLon >= -180 && b.MaxLon <= 180
}

func (b Box) String() string {
	return fmt.Sprintf("[%.5f,%.5f]x[%.5f,%.5f]", b.MinLat, b.MaxLat, b.MinLon, b.MaxLon)
}

// World is the bounding box of the entire globe.
var World = Box{MinLat: -90, MaxLat: 90, MinLon: -180, MaxLon: 180}

// lonLatBits returns the number of longitude and latitude bits at the given
// precision. Geohash interleaves bits starting with longitude, so odd total
// bit counts give longitude one extra bit.
func lonLatBits(precision int) (lonBits, latBits int) {
	total := 5 * precision
	lonBits = (total + 1) / 2
	latBits = total / 2
	return
}

// CellSize returns the width (degrees longitude) and height (degrees
// latitude) of a geohash tile at the given precision.
func CellSize(precision int) (width, height float64) {
	lonBits, latBits := lonLatBits(precision)
	return 360 / math.Pow(2, float64(lonBits)), 180 / math.Pow(2, float64(latBits))
}

// Encode returns the text of EncodeHash: the geohash of the given point at
// the given precision.
func Encode(lat, lon float64, precision int) string {
	return EncodeHash(lat, lon, precision).String()
}

// DecodeBox returns the bounding box of the geohash.
func DecodeBox(gh string) (Box, error) {
	h, err := Pack(gh)
	if err != nil {
		return Box{}, err
	}
	return h.Box(), nil
}

// MustBox is DecodeBox for geohashes known to be valid; it panics otherwise.
// Intended for literals in tests and examples.
func MustBox(gh string) Box {
	b, err := DecodeBox(gh)
	if err != nil {
		panic(err)
	}
	return b
}

// Direction identifies one of the eight compass neighbors of a geohash tile.
type Direction int

// The eight compass directions, clockwise from north.
const (
	North Direction = iota
	NorthEast
	East
	SouthEast
	South
	SouthWest
	West
	NorthWest
	numDirections
)

var directionNames = [...]string{"N", "NE", "E", "SE", "S", "SW", "W", "NW"}

func (d Direction) String() string {
	if d < 0 || int(d) >= len(directionNames) {
		return fmt.Sprintf("Direction(%d)", int(d))
	}
	return directionNames[d]
}

// Offsets returns the (latSteps, lonSteps) displacement of the direction in
// units of one tile.
func (d Direction) Offsets() (dLat, dLon int) {
	switch d {
	case North:
		return 1, 0
	case NorthEast:
		return 1, 1
	case East:
		return 0, 1
	case SouthEast:
		return -1, 1
	case South:
		return -1, 0
	case SouthWest:
		return -1, -1
	case West:
		return 0, -1
	case NorthWest:
		return 1, -1
	}
	return 0, 0
}

// Directions lists all eight compass directions, clockwise from north.
func Directions() []Direction {
	ds := make([]Direction, numDirections)
	for i := range ds {
		ds[i] = Direction(i)
	}
	return ds
}

// Cover is CoverHashes as text.
func Cover(b Box, precision int) ([]string, error) {
	hs, err := CoverHashes(b, precision)
	if err != nil {
		return nil, err
	}
	return texts(hs), nil
}

func texts(hs []Hash) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.String()
	}
	return out
}

func clampLat(lat float64) float64 {
	if lat >= 90 {
		return math.Nextafter(90, 0)
	}
	if lat < -90 {
		return -90
	}
	return lat
}

func wrapLon(lon float64) float64 {
	if lon >= -180 && lon < 180 {
		return lon
	}
	// math.Mod, not repeated subtraction: for |lon| beyond ~2^53 a loop of
	// "lon -= 360" never changes the value and would spin forever (found by
	// FuzzEncodeDecodeRoundTrip).
	lon = math.Mod(lon+180, 360)
	if lon < 0 {
		lon += 360
	}
	return lon - 180
}
