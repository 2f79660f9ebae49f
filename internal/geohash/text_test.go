package geohash

// Text forms of the Hash algebra. Nothing outside this package's tests speaks
// geohash text for these operations any more, but the tests written against
// text — known values, the paper's examples, the fuzz properties — are kept
// as they were and reach the integer code through these.

// Decode returns the center point of the geohash's bounding box.
func Decode(gh string) (lat, lon float64, err error) {
	b, err := DecodeBox(gh)
	if err != nil {
		return 0, 0, err
	}
	lat, lon = b.Center()
	return lat, lon, nil
}

// Validate reports whether gh is a well-formed geohash.
func Validate(gh string) error {
	_, err := DecodeBox(gh)
	return err
}

// Neighbor is Hash.Neighbor over text.
func Neighbor(gh string, d Direction) (string, bool, error) {
	h, err := Pack(gh)
	if err != nil {
		return "", false, err
	}
	n, ok := h.Neighbor(d)
	if !ok {
		return "", false, nil
	}
	return n.String(), true, nil
}

// Neighbors returns the up-to-8 same-precision neighbors of gh, clockwise
// from north. Tiles at a pole have fewer than 8.
func Neighbors(gh string) ([]string, error) {
	h, err := Pack(gh)
	if err != nil {
		return nil, err
	}
	var ns [8]Hash
	return texts(ns[:h.Neighbors(&ns)]), nil
}

// Parent is Hash.Parent over text.
func Parent(gh string) (string, bool) {
	p, ok := MustPack(gh).Parent()
	if !ok {
		return "", false
	}
	return p.String(), true
}

// Children is the 32 Hash.Child values as text, in Base32 order.
func Children(gh string) []string {
	return texts(MustPack(gh).Extensions(len(gh) + 1))
}

// IsAncestor reports whether a is a strict spatial ancestor of b (a encloses
// b and is coarser), by Hash.HasPrefix.
func IsAncestor(a, b string) bool {
	ha, errA := Pack(a)
	hb, errB := Pack(b)
	return errA == nil && errB == nil && ha != hb && hb.HasPrefix(ha)
}

// Antipode is Hash.Antipode over text. STASH uses the antipode to pick the
// helper node "most isolated" from a hotspotted region (paper §VII-B3).
func Antipode(gh string) (string, error) {
	h, err := Pack(gh)
	if err != nil {
		return "", err
	}
	return h.Antipode().String(), nil
}

// CoverPolygon is CoverPolygonHashes as text.
func CoverPolygon(p Polygon, precision int) ([]string, error) {
	hs, err := CoverPolygonHashes(p, precision)
	if err != nil {
		return nil, err
	}
	return texts(hs), nil
}
