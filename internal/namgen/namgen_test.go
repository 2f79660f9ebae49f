package namgen

import (
	"testing"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/temporal"
)

var day = temporal.MustParse("2015-02-02", temporal.Day)

func TestBlockDeterministic(t *testing.T) {
	g1 := New(42)
	g2 := New(42)
	b1, err := g1.Block("9q", day)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := g2.Block("9q", day)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != len(b2) {
		t.Fatalf("lengths differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("observation %d differs: %+v vs %+v", i, b1[i], b2[i])
		}
	}
}

func TestBlockSeedSensitivity(t *testing.T) {
	a, _ := New(1).Block("9q", day)
	b, _ := New(2).Block("9q", day)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical blocks")
	}
}

func TestBlockIndependence(t *testing.T) {
	// Generating other blocks first must not perturb a block's content.
	g := New(7)
	want, _ := g.Block("9q", day)
	g2 := New(7)
	if _, err := g2.Block("u4", day); err != nil {
		t.Fatal(err)
	}
	other := temporal.MustParse("2015-07-14", temporal.Day)
	if _, err := g2.Block("9q", other); err != nil {
		t.Fatal(err)
	}
	got, _ := g2.Block("9q", day)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("block content depends on generation order at %d", i)
		}
	}
}

func TestBlockBounds(t *testing.T) {
	g := New(42)
	obs, err := g.Block("9q", day)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != DefaultPointsPerBlock {
		t.Fatalf("block size = %d, want %d", len(obs), DefaultPointsPerBlock)
	}
	box := geohash.MustBox("9q")
	start, _ := day.Start()
	end, _ := day.End()
	for _, o := range obs {
		if !box.Contains(o.Lat, o.Lon) {
			t.Errorf("observation at (%v,%v) outside block box %v", o.Lat, o.Lon, box)
		}
		if o.Time.Before(start) || !o.Time.Before(end) {
			t.Errorf("observation time %v outside day %v", o.Time, day)
		}
	}
}

func TestBlockCustomSize(t *testing.T) {
	g := &Generator{Seed: 1, PointsPerBlock: 17}
	obs, err := g.Block("u4", day)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 17 {
		t.Errorf("block size = %d, want 17", len(obs))
	}
	g.PointsPerBlock = 0
	obs, _ = g.Block("u4", day)
	if len(obs) != DefaultPointsPerBlock {
		t.Errorf("zero size should fall back to default, got %d", len(obs))
	}
}

func TestBlockInvalidInputs(t *testing.T) {
	g := New(1)
	if _, err := g.Block("not a geohash", day); err == nil {
		t.Error("invalid prefix accepted")
	}
	if _, err := g.Block("9q", temporal.Label{Res: 9}); err == nil {
		t.Error("invalid day accepted")
	}
}

func TestPhysicalPlausibility(t *testing.T) {
	g := New(42)
	// Sample several blocks across the globe.
	prefixes := []string{"9q", "u4", "6g", "r3", "c2"}
	var minT, maxT float64 = 1e9, -1e9
	for _, p := range prefixes {
		obs, err := g.Block(p, day)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			if o.Humidity < 0 || o.Humidity > 1 {
				t.Fatalf("humidity %v out of [0,1]", o.Humidity)
			}
			if o.Precipitation < 0 || o.Snow < 0 {
				t.Fatalf("negative precipitation/snow: %+v", o)
			}
			if o.Snow > 0 && o.Temperature >= 0 {
				t.Fatalf("snow above freezing: %+v", o)
			}
			if o.Temperature < minT {
				minT = o.Temperature
			}
			if o.Temperature > maxT {
				maxT = o.Temperature
			}
		}
	}
	if minT < -80 || maxT > 60 {
		t.Errorf("temperature range [%v,%v] implausible", minT, maxT)
	}
}

func TestLatitudeGradient(t *testing.T) {
	// Mean temperature near the equator must exceed mean temperature at
	// high northern latitudes (February).
	g := New(42)
	mean := func(prefix string) float64 {
		obs, err := g.Block(prefix, day)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, o := range obs {
			sum += o.Temperature
		}
		return sum / float64(len(obs))
	}
	equator := mean("s0") // ~(0-5)N
	arctic := mean("b")   // high north (precision-1 block is large; still cold on average)
	if equator <= arctic {
		t.Errorf("equator mean %v should exceed arctic mean %v", equator, arctic)
	}
}

func TestObservationValue(t *testing.T) {
	o := Observation{Temperature: 5, Humidity: 0.5, Precipitation: 1, Snow: 0}
	for _, attr := range Attributes {
		if _, ok := o.Value(attr); !ok {
			t.Errorf("attribute %q not retrievable", attr)
		}
	}
	if v, ok := o.Value("temperature"); !ok || v != 5 {
		t.Errorf("temperature = %v,%v", v, ok)
	}
	if _, ok := o.Value("nonsense"); ok {
		t.Error("unknown attribute accepted")
	}
}

// TestValuesFollowTheCellSchema: the attribute names are exactly the cell
// schema, and Values files each field under its schema index.
func TestValuesFollowTheCellSchema(t *testing.T) {
	if len(Attributes) != cell.NumAttrs {
		t.Fatalf("%d attribute names for a schema of %d", len(Attributes), cell.NumAttrs)
	}
	o := Observation{Temperature: 5, Humidity: 0.5, Precipitation: 1, Snow: 2}
	vals := o.Values()
	for _, name := range Attributes {
		a, ok := cell.AttrByName(name)
		if !ok {
			t.Fatalf("attribute %q is not in the cell schema", name)
		}
		if want, _ := o.Value(name); vals[a] != want {
			t.Errorf("Values()[%v] = %v, want %v", a, vals[a], want)
		}
		if spec := HistogramSpecs[a]; !(spec.Lo < spec.Hi) || spec.Buckets < 1 {
			t.Errorf("no usable histogram spec for %q: %+v", name, spec)
		}
	}
}

func BenchmarkBlock(b *testing.B) {
	g := New(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Block("9q", day); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBumpChangesContent(t *testing.T) {
	g := New(42)
	before, err := g.Block("9q", day)
	if err != nil {
		t.Fatal(err)
	}
	if v := g.Bump("9q", day); v != 1 {
		t.Errorf("first bump version = %d", v)
	}
	after, err := g.Block("9q", day)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range before {
		if before[i] == after[i] {
			same++
		}
	}
	if same == len(before) {
		t.Error("bump did not change block content")
	}
	// Versioned content is still deterministic.
	again, _ := g.Block("9q", day)
	for i := range after {
		if after[i] != again[i] {
			t.Fatal("versioned block not deterministic")
		}
	}
	// Other blocks are untouched.
	otherBefore, _ := New(42).Block("u4", day)
	otherAfter, _ := g.Block("u4", day)
	for i := range otherBefore {
		if otherBefore[i] != otherAfter[i] {
			t.Fatal("bump leaked into an unrelated block")
		}
	}
}

func TestVersionAccessor(t *testing.T) {
	g := New(1)
	if g.Version("9q", day) != 0 {
		t.Error("fresh block should be version 0")
	}
	g.Bump("9q", day)
	g.Bump("9q", day)
	if g.Version("9q", day) != 2 {
		t.Errorf("version = %d, want 2", g.Version("9q", day))
	}
}
