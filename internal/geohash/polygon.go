package geohash

import (
	"fmt"
)

// Point is a latitude/longitude coordinate.
type Point struct {
	Lat, Lon float64
}

// Polygon is a simple (non-self-intersecting) polygon on the lat/lon plane,
// listed as its vertices in order (closing edge implied). The paper's
// queries carry a Query_Polygon; rectangles are the common case but front-
// ends also send lassoed regions, which this type models. Polygons spanning
// the antimeridian are not supported (split them first).
type Polygon []Point

// Validate checks the polygon has at least 3 vertices inside the globe.
func (p Polygon) Validate() error {
	if len(p) < 3 {
		return fmt.Errorf("%w: polygon needs >= 3 vertices, has %d", ErrInvalid, len(p))
	}
	for i, v := range p {
		if v.Lat < -90 || v.Lat > 90 || v.Lon < -180 || v.Lon > 180 {
			return fmt.Errorf("%w: polygon vertex %d off-globe: %+v", ErrInvalid, i, v)
		}
	}
	return nil
}

// BoundingBox returns the polygon's axis-aligned bounds.
func (p Polygon) BoundingBox() Box {
	if len(p) == 0 {
		return Box{}
	}
	b := Box{MinLat: p[0].Lat, MaxLat: p[0].Lat, MinLon: p[0].Lon, MaxLon: p[0].Lon}
	for _, v := range p[1:] {
		if v.Lat < b.MinLat {
			b.MinLat = v.Lat
		}
		if v.Lat > b.MaxLat {
			b.MaxLat = v.Lat
		}
		if v.Lon < b.MinLon {
			b.MinLon = v.Lon
		}
		if v.Lon > b.MaxLon {
			b.MaxLon = v.Lon
		}
	}
	return b
}

// Contains reports whether the point lies inside the polygon (ray casting;
// boundary points may land on either side, which is irrelevant at cell
// granularity).
func (p Polygon) Contains(lat, lon float64) bool {
	inside := false
	n := len(p)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		vi, vj := p[i], p[j]
		if (vi.Lat > lat) != (vj.Lat > lat) {
			xCross := (vj.Lon-vi.Lon)*(lat-vi.Lat)/(vj.Lat-vi.Lat) + vi.Lon
			if lon < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// IntersectsBox reports whether the polygon and the box share any area,
// tested via mutual containment and edge crossings.
func (p Polygon) IntersectsBox(b Box) bool {
	// Any polygon vertex inside the box.
	for _, v := range p {
		if b.Contains(v.Lat, v.Lon) {
			return true
		}
	}
	// Any box corner inside the polygon.
	corners := [4]Point{
		{b.MinLat, b.MinLon}, {b.MinLat, b.MaxLon},
		{b.MaxLat, b.MinLon}, {b.MaxLat, b.MaxLon},
	}
	for _, c := range corners {
		if p.Contains(c.Lat, c.Lon) {
			return true
		}
	}
	// Any polygon edge crossing any box edge.
	n := len(p)
	boxEdges := [4][2]Point{
		{{b.MinLat, b.MinLon}, {b.MinLat, b.MaxLon}},
		{{b.MaxLat, b.MinLon}, {b.MaxLat, b.MaxLon}},
		{{b.MinLat, b.MinLon}, {b.MaxLat, b.MinLon}},
		{{b.MinLat, b.MaxLon}, {b.MaxLat, b.MaxLon}},
	}
	for i := 0; i < n; i++ {
		a1, a2 := p[i], p[(i+1)%n]
		for _, e := range boxEdges {
			if segmentsCross(a1, a2, e[0], e[1]) {
				return true
			}
		}
	}
	return false
}

// segmentsCross reports proper intersection of two segments (shared
// endpoints count as crossing, which errs toward inclusion — correct for
// query footprints).
func segmentsCross(p1, p2, q1, q2 Point) bool {
	d1 := cross(q1, q2, p1)
	d2 := cross(q1, q2, p2)
	d3 := cross(p1, p2, q1)
	d4 := cross(p1, p2, q2)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(q1, q2, p1)) ||
		(d2 == 0 && onSegment(q1, q2, p2)) ||
		(d3 == 0 && onSegment(p1, p2, q1)) ||
		(d4 == 0 && onSegment(p1, p2, q2))
}

func cross(a, b, c Point) float64 {
	return (b.Lon-a.Lon)*(c.Lat-a.Lat) - (b.Lat-a.Lat)*(c.Lon-a.Lon)
}

func onSegment(a, b, c Point) bool {
	return min2(a.Lon, b.Lon) <= c.Lon && c.Lon <= max2(a.Lon, b.Lon) &&
		min2(a.Lat, b.Lat) <= c.Lat && c.Lat <= max2(a.Lat, b.Lat)
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// RectPolygon converts a box into its polygon (counter-clockwise).
func RectPolygon(b Box) Polygon {
	return Polygon{
		{b.MinLat, b.MinLon},
		{b.MinLat, b.MaxLon},
		{b.MaxLat, b.MaxLon},
		{b.MaxLat, b.MinLon},
	}
}
