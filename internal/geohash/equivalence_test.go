package geohash

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// edgePoints are the coordinates where the integer encoder could part ways
// with bisection: both poles, the ±180° seam, tile boundaries, and values one
// ulp either side of them.
func edgePoints() [][2]float64 {
	lats := []float64{-90, math.Nextafter(-90, 0), -45, -1e-12, 0, 1e-12, 45, 89.99999999,
		math.Nextafter(90, 0), 90, 91, -91, 5.625, math.Nextafter(5.625, 0), math.Nextafter(5.625, 90)}
	lons := []float64{-180, math.Nextafter(-180, 0), -135, -1e-12, 0, 1e-12, 135, 179.99999999,
		math.Nextafter(180, 0), 180, 180.5, -180.5, 540, -540, 11.25, math.Nextafter(11.25, 0), math.Nextafter(11.25, 180)}
	var out [][2]float64
	for _, la := range lats {
		for _, lo := range lons {
			out = append(out, [2]float64{la, lo})
		}
	}
	return out
}

func randomPoint(rng *rand.Rand) (lat, lon float64) {
	return -90 + 180*rng.Float64(), -180 + 360*rng.Float64()
}

func TestEncodeHashMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := edgePoints()
	for i := 0; i < 5000; i++ {
		la, lo := randomPoint(rng)
		pts = append(pts, [2]float64{la, lo})
	}
	for _, p := range pts {
		for prec := 1; prec <= MaxPrecision; prec++ {
			want := refEncode(p[0], p[1], prec)
			h := EncodeHash(p[0], p[1], prec)
			if got := h.String(); got != want {
				t.Fatalf("EncodeHash(%v, %v, %d) = %q, bisection gives %q", p[0], p[1], prec, got, want)
			}
			if !h.Valid() || h.Len() != prec {
				t.Fatalf("EncodeHash(%v, %v, %d) = %#x: invalid", p[0], p[1], prec, uint64(h))
			}
			if back, err := Pack(want); err != nil || back != h {
				t.Fatalf("Pack(%q) = %#x, %v; want %#x", want, uint64(back), err, uint64(h))
			}
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, want := EncodeHash(v, v, 6).String(), refEncode(v, v, 6); got != want {
			t.Errorf("EncodeHash(%v, %v, 6) = %q, bisection gives %q", v, v, got, want)
		}
	}
}

// sampleHashes returns tiles at every precision 1-8 (and a few deeper ones):
// the four corners of the grid, the seam columns, both pole rows and seeded
// random tiles.
func sampleHashes(rng *rand.Rand, perPrecision int) []Hash {
	var out []Hash
	for prec := 1; prec <= MaxPrecision; prec++ {
		if prec > 8 && prec != MaxPrecision {
			continue
		}
		lonBits, latBits := lonLatBits(prec)
		maxX, maxY := uint32(1)<<uint(lonBits)-1, uint32(1)<<uint(latBits)-1
		for _, x := range []uint32{0, 1, maxX / 2, maxX - 1, maxX} {
			for _, y := range []uint32{0, 1, maxY / 2, maxY - 1, maxY} {
				out = append(out, FromXY(x, y, prec))
			}
		}
		for i := 0; i < perPrecision; i++ {
			la, lo := randomPoint(rng)
			out = append(out, EncodeHash(la, lo, prec))
		}
	}
	return out
}

func TestHashAlgebraMatchesText(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, h := range sampleHashes(rng, 200) {
		gh := h.String()
		if x, y := h.XY(); FromXY(x, y, h.Len()) != h {
			t.Fatalf("%q: FromXY(XY) = %v", gh, FromXY(x, y, h.Len()))
		}
		wantBox, err := refDecodeBox(gh)
		if err != nil {
			t.Fatalf("reference rejects %q: %v", gh, err)
		}
		if got := h.Box(); got != wantBox {
			t.Fatalf("%q: Box = %v, bisection gives %v", gh, got, wantBox)
		}
		for d := North; d < numDirections; d++ {
			want, wantOK, err := refNeighbor(gh, d)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := h.Neighbor(d)
			if ok != wantOK || (ok && got.String() != want) {
				t.Fatalf("%q.Neighbor(%v) = %q, %v; reference gives %q, %v", gh, d, got, ok, want, wantOK)
			}
		}
		wantAnti, err := refAntipode(gh)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Antipode().String(); got != wantAnti {
			t.Fatalf("%q.Antipode = %q, reference gives %q", gh, got, wantAnti)
		}
		p, ok := h.Parent()
		if ok != (len(gh) > 1) || (ok && p.String() != gh[:len(gh)-1]) {
			t.Fatalf("%q.Parent = %q, %v", gh, p, ok)
		}
		if h.Len() < MaxPrecision {
			for i := 0; i < BranchFactor; i++ {
				c := h.Child(i)
				if c.String() != gh+string(Base32[i]) || !c.Valid() {
					t.Fatalf("%q.Child(%d) = %q", gh, i, c)
				}
				if cp, _ := c.Parent(); cp != h || !c.HasPrefix(h) || h.HasPrefix(c) {
					t.Fatalf("%q: child %q does not nest", gh, c)
				}
			}
		}
		for n := 0; n <= h.Len()+1; n++ {
			want := gh
			if n < len(gh) {
				want = gh[:n]
			}
			if got := h.Prefix(n).String(); got != want {
				t.Fatalf("%q.Prefix(%d) = %q, want %q", gh, n, got, want)
			}
		}
	}
}

func TestHasPrefixMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hs := sampleHashes(rng, 20)
	for i := 0; i < 20000; i++ {
		a, b := hs[rng.Intn(len(hs))], hs[rng.Intn(len(hs))]
		if rng.Intn(2) == 0 {
			b = a.Prefix(1 + rng.Intn(a.Len()))
		}
		if got, want := a.HasPrefix(b), strings.HasPrefix(a.String(), b.String()); got != want {
			t.Fatalf("%q.HasPrefix(%q) = %v, strings says %v", a, b, got, want)
		}
	}
}

// TestHashOrderIsTextOrder pins the property wire.SortKeys and the exporters
// lean on: comparing packed values orders geohashes as comparing their text.
func TestHashOrderIsTextOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	hs := sampleHashes(rng, 50)
	byValue := append([]Hash(nil), hs...)
	sort.Slice(byValue, func(i, j int) bool { return byValue[i] < byValue[j] })
	byText := texts(hs)
	sort.Strings(byText)
	for i := range byValue {
		if byValue[i].String() != byText[i] {
			t.Fatalf("position %d: packed order has %q, text order %q", i, byValue[i], byText[i])
		}
	}
}

func TestCoverHashesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	boxes := []Box{
		World,
		{MinLat: 80, MaxLat: 90, MinLon: -180, MaxLon: -170},          // north pole, west seam
		{MinLat: -90, MaxLat: -85, MinLon: 170, MaxLon: 180},          // south pole, east seam
		{MinLat: 0, MaxLat: 5.625, MinLon: 0, MaxLon: 11.25},          // exactly one precision-2 tile
		{MinLat: 30, MaxLat: 30.0001, MinLon: -100, MaxLon: -99.9999}, // smaller than a tile
		{MinLat: -100, MaxLat: 100, MinLon: -200, MaxLon: 200},        // clamps to the globe
	}
	for i := 0; i < 300; i++ {
		la, lo := randomPoint(rng)
		boxes = append(boxes, Box{MinLat: la, MaxLat: la + 20*rng.Float64(), MinLon: lo, MaxLon: lo + 40*rng.Float64()})
	}
	for _, b := range boxes {
		for prec := 1; prec <= 8; prec++ {
			n, err := CoverCount(b, prec)
			wantN, wantErr := refCoverCount(b, prec)
			if (err != nil) != (wantErr != nil) || n != wantN {
				t.Fatalf("CoverCount(%v, %d) = %d, %v; reference gives %d, %v", b, prec, n, err, wantN, wantErr)
			}
			if err != nil || n > 20000 {
				continue
			}
			want, err := refCover(b, prec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CoverHashes(b, prec)
			if err != nil {
				t.Fatalf("CoverHashes(%v, %d): %v", b, prec, err)
			}
			if strings.Join(texts(got), ",") != strings.Join(want, ",") {
				t.Fatalf("CoverHashes(%v, %d) differs from the reference:\n got %v\nwant %v", b, prec, got, want)
			}
		}
	}
}

func TestPackRejectsWhatDecodeBoxRejected(t *testing.T) {
	for _, s := range []string{"", "a", "9V", "9q ", "近", "\x00", strings.Repeat("9", 13), "9q8y7x"} {
		_, refErr := refDecodeBox(s)
		_, err := Pack(s)
		if (err != nil) != (refErr != nil) {
			t.Errorf("Pack(%q) error = %v, reference error = %v", s, err, refErr)
		}
		if _, berr := PackBytes([]byte(s)); (berr != nil) != (err != nil) {
			t.Errorf("PackBytes(%q) error = %v, Pack error = %v", s, berr, err)
		}
	}
	if Hash(0).Valid() || Hash(13).Valid() || (MustPack("9q") | 1<<4).Valid() {
		t.Error("Valid accepts a malformed Hash")
	}
}

func TestExtensionsMatchTextConcatenation(t *testing.T) {
	for _, gh := range []string{"", "9", "9q", "zz"} {
		want := []string{gh}
		for n := len(gh); n <= len(gh)+2; n++ {
			if n > 0 {
				h := Hash(0)
				if gh != "" {
					h = MustPack(gh)
				}
				if got := strings.Join(texts(h.Extensions(n)), ","); got != strings.Join(want, ",") {
					t.Fatalf("%q.Extensions(%d) = %s, want %v", gh, n, got, want)
				}
			}
			var next []string
			for _, p := range want {
				for i := range Base32 {
					next = append(next, p+Base32[i:i+1])
				}
			}
			want = next
		}
	}
	if got := MustPack("9q8y").Extensions(2); len(got) != 1 || got[0] != MustPack("9q") {
		t.Errorf("Extensions of a longer geohash = %v", got)
	}
	// Extensions is built on the arithmetic pair, so the above holds them to
	// the text too; what is left is that walking them allocates nothing — the
	// one-element case is every cell key at or past a block's length.
	for _, h := range []Hash{MustPack("9q8y"), MustPack("9")} {
		var last Hash
		if allocs := testing.AllocsPerRun(20, func() {
			for i, n := 0, h.ExtensionCount(3); i < n; i++ {
				last = h.Extension(3, i)
			}
		}); allocs != 0 {
			t.Errorf("walking %v's extensions allocates %.0f objects", h, allocs)
		}
		if want := h.Extensions(3); last != want[len(want)-1] {
			t.Errorf("last extension of %v = %v, want %v", h, last, want[len(want)-1])
		}
	}
}

func TestNeighborsMatchesNeighbor(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, h := range sampleHashes(rng, 100) {
		var got [8]Hash
		n := h.Neighbors(&got)
		var want []Hash
		for d := North; d < numDirections; d++ {
			if nb, ok := h.Neighbor(d); ok {
				want = append(want, nb)
			}
		}
		if n != len(want) {
			t.Fatalf("%v has %d neighbors, Neighbor finds %d", h, n, len(want))
		}
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("%v neighbor %d = %v, want %v", h, i, got[i], w)
			}
		}
	}
}
