package geohash

// The string-and-float implementations the package had before geohashes
// became packed integers, kept verbatim as the reference the integer algebra
// is held to (equivalence_test.go). Nothing outside the tests uses them.

import (
	"fmt"
	"strings"
)

func refEncode(lat, lon float64, precision int) string {
	if precision < 1 {
		precision = 1
	}
	if precision > MaxPrecision {
		precision = MaxPrecision
	}
	lat = clampLat(lat)
	lon = wrapLon(lon)

	var sb strings.Builder
	sb.Grow(precision)
	latLo, latHi := -90.0, 90.0
	lonLo, lonHi := -180.0, 180.0
	even := true // longitude bit first
	var ch, bit int
	for sb.Len() < precision {
		if even {
			mid := (lonLo + lonHi) / 2
			if lon >= mid {
				ch = ch<<1 | 1
				lonLo = mid
			} else {
				ch <<= 1
				lonHi = mid
			}
		} else {
			mid := (latLo + latHi) / 2
			if lat >= mid {
				ch = ch<<1 | 1
				latLo = mid
			} else {
				ch <<= 1
				latHi = mid
			}
		}
		even = !even
		bit++
		if bit == 5 {
			sb.WriteByte(Base32[ch])
			ch, bit = 0, 0
		}
	}
	return sb.String()
}

func refDecodeBox(gh string) (Box, error) {
	if len(gh) == 0 || len(gh) > MaxPrecision {
		return Box{}, fmt.Errorf("%w: %q", ErrInvalid, gh)
	}
	latLo, latHi := -90.0, 90.0
	lonLo, lonHi := -180.0, 180.0
	even := true
	for i := 0; i < len(gh); i++ {
		c := gh[i]
		if c >= 128 || base32Index[c] < 0 {
			return Box{}, fmt.Errorf("%w: %q has invalid character %q", ErrInvalid, gh, c)
		}
		v := base32Index[c]
		for mask := int8(16); mask > 0; mask >>= 1 {
			if even {
				mid := (lonLo + lonHi) / 2
				if v&mask != 0 {
					lonLo = mid
				} else {
					lonHi = mid
				}
			} else {
				mid := (latLo + latHi) / 2
				if v&mask != 0 {
					latLo = mid
				} else {
					latHi = mid
				}
			}
			even = !even
		}
	}
	return Box{MinLat: latLo, MaxLat: latHi, MinLon: lonLo, MaxLon: lonHi}, nil
}

func refNeighbor(gh string, d Direction) (string, bool, error) {
	b, err := refDecodeBox(gh)
	if err != nil {
		return "", false, err
	}
	dLat, dLon := d.Offsets()
	lat, lon := b.Center()
	lat += float64(dLat) * b.Height()
	lon += float64(dLon) * b.Width()
	if lat >= 90 || lat < -90 {
		return "", false, nil
	}
	return refEncode(lat, wrapLon(lon), len(gh)), true, nil
}

func refCover(b Box, precision int) ([]string, error) {
	b = b.Clamp()
	if !b.Valid() {
		return nil, fmt.Errorf("%w: cover box %v", ErrInvalid, b)
	}
	if precision < 1 || precision > MaxPrecision {
		return nil, fmt.Errorf("%w: cover precision %d", ErrInvalid, precision)
	}
	w, h := CellSize(precision)
	// Anchor the walk on tile centers so floating-point drift cannot skip a
	// row or column.
	first, err := refDecodeBox(refEncode(b.MinLat, b.MinLon, precision))
	if err != nil {
		return nil, err
	}
	// Walk tile minimums (not centers): a box smaller than one tile must
	// still yield the tile that contains it.
	var out []string
	for latMin := first.MinLat; latMin < b.MaxLat && latMin < 90; latMin += h {
		for lonMin := first.MinLon; lonMin < b.MaxLon && lonMin < 180; lonMin += w {
			out = append(out, refEncode(latMin+h/2, lonMin+w/2, precision))
		}
	}
	return out, nil
}

func refCoverCount(b Box, precision int) (int, error) {
	b = b.Clamp()
	if !b.Valid() {
		return 0, fmt.Errorf("%w: cover box %v", ErrInvalid, b)
	}
	if precision < 1 || precision > MaxPrecision {
		return 0, fmt.Errorf("%w: cover precision %d", ErrInvalid, precision)
	}
	w, h := CellSize(precision)
	first, err := refDecodeBox(refEncode(b.MinLat, b.MinLon, precision))
	if err != nil {
		return 0, err
	}
	rows := 0
	for latMin := first.MinLat; latMin < b.MaxLat && latMin < 90; latMin += h {
		rows++
	}
	cols := 0
	for lonMin := first.MinLon; lonMin < b.MaxLon && lonMin < 180; lonMin += w {
		cols++
	}
	return rows * cols, nil
}

func refAntipode(gh string) (string, error) {
	b, err := refDecodeBox(gh)
	if err != nil {
		return "", err
	}
	lat, lon := b.Center()
	return refEncode(-lat, wrapLon(lon+180), len(gh)), nil
}
