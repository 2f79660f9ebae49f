package cell

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"stash/internal/geohash"
	"stash/internal/temporal"
)

func key(t *testing.T, gh, text string, r temporal.Resolution) Key {
	t.Helper()
	k, err := NewKey(gh, temporal.MustParse(text, r))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestNewKeyValidation(t *testing.T) {
	if _, err := NewKey("9q8a7", temporal.MustParse("2015-03", temporal.Month)); err == nil {
		t.Error("invalid geohash accepted")
	}
	if _, err := NewKey("9q8y7aaaa", temporal.MustParse("2015-03", temporal.Month)); err == nil {
		t.Error("over-long geohash accepted")
	}
	if _, err := NewKey("9q8y7", temporal.Label{Res: temporal.Month, Bucket: 10000 * 12}); err == nil {
		t.Error("invalid temporal label accepted")
	}
	k, err := NewKey("9q8y7", temporal.MustParse("2015-03", temporal.Month))
	if err != nil {
		t.Fatal(err)
	}
	if k.SpatialRes() != 5 || k.TemporalRes() != temporal.Month {
		t.Errorf("resolutions: %d %v", k.SpatialRes(), k.TemporalRes())
	}
	if k.String() != "9q8y7@2015-03" {
		t.Errorf("String = %q", k.String())
	}
}

func TestMustKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustKey on bad key should panic")
		}
	}()
	MustKey("bad geohash!", "2015-03", temporal.Month)
}

func TestLevelDistinctPerResolutionPair(t *testing.T) {
	seen := map[int]string{}
	for _, res := range []temporal.Resolution{temporal.Year, temporal.Month, temporal.Day, temporal.Hour} {
		gh := ""
		for p := 1; p <= MaxSpatialPrecision; p++ {
			gh += "9"
			lvl := Key{Geohash: geohash.MustPack(gh), Time: temporal.Label{Res: res}}.Level()
			label := string(rune('a'+int(res))) + gh
			if prev, dup := seen[lvl]; dup {
				t.Fatalf("level collision: %q and %q both map to %d", prev, label, lvl)
			}
			seen[lvl] = label
			if lvl < 0 || lvl >= NumLevels {
				t.Fatalf("level %d out of range [0,%d)", lvl, NumLevels)
			}
		}
	}
}

func TestLevelOrdering(t *testing.T) {
	coarse := key(t, "9q", "2015", temporal.Year)
	finerSpace := key(t, "9q8", "2015", temporal.Year)
	finerTime := key(t, "9q", "2015-03", temporal.Month)
	if !(coarse.Level() < finerSpace.Level()) {
		t.Error("finer space must increase level")
	}
	if !(coarse.Level() < finerTime.Level()) {
		t.Error("finer time must increase level")
	}
}

// TestPaperLateralEdges reproduces the paper's Fig. 1 example: cell 9q8y7 at
// 2015-03 has 8 spatial neighbors and temporal neighbors 2015-02/2015-04.
func TestPaperLateralEdges(t *testing.T) {
	k := key(t, "9q8y7", "2015-03", temporal.Month)
	sp := k.SpatialNeighbors()
	if len(sp) != 8 {
		t.Errorf("spatial neighbors = %d, want 8", len(sp))
	}
	for _, n := range sp {
		if n.Time != k.Time {
			t.Errorf("spatial neighbor changed time: %v", n)
		}
	}
	tp, err := k.TemporalNeighbors()
	if err != nil {
		t.Fatal(err)
	}
	if len(tp) != 2 || tp[0].Time.String() != "2015-02" || tp[1].Time.String() != "2015-04" {
		t.Errorf("temporal neighbors = %v", tp)
	}
	all, err := k.LateralNeighbors()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Errorf("lateral edge set = %d, want 10", len(all))
	}
}

// TestThreeParents checks the paper's claim (§IV-B) that a cell has three
// parent precisions: spatial, temporal, spatiotemporal.
func TestThreeParents(t *testing.T) {
	k := key(t, "9q8y7", "2015-03", temporal.Month)
	ps := k.Parents()
	if len(ps) != 3 {
		t.Fatalf("parents = %d, want 3", len(ps))
	}
	var haveSpatial, haveTemporal, haveBoth bool
	for _, p := range ps {
		switch {
		case p.String() == "9q8y@2015-03":
			haveSpatial = true
		case p.String() == "9q8y7@2015":
			haveTemporal = true
		case p.String() == "9q8y@2015":
			haveBoth = true
		}
		if !p.Encloses(k) {
			t.Errorf("parent %v does not enclose child %v", p, k)
		}
	}
	if !haveSpatial || !haveTemporal || !haveBoth {
		t.Errorf("missing parent kind: %v", ps)
	}
}

func TestParentsAtHierarchyEdges(t *testing.T) {
	top := key(t, "9", "2015", temporal.Year)
	if got := top.Parents(); len(got) != 0 {
		t.Errorf("top-of-hierarchy cell has parents: %v", got)
	}
	spatialOnly := key(t, "9", "2015-03", temporal.Month)
	if got := spatialOnly.Parents(); len(got) != 1 || got[0].Time.Res != temporal.Year {
		t.Errorf("coarsest-space cell parents = %v", got)
	}
}

func TestSpatialChildren(t *testing.T) {
	k := key(t, "9q8y", "2015-03", temporal.Month)
	ch, ok := k.SpatialChildren()
	if !ok || len(ch) != 32 {
		t.Fatalf("spatial children = %d,%v; want 32", len(ch), ok)
	}
	for _, c := range ch {
		if !k.Encloses(c) {
			t.Errorf("child %v escapes parent %v", c, k)
		}
	}
	deep := key(t, "12345678", "2015", temporal.Year)
	if _, ok := deep.SpatialChildren(); ok {
		t.Error("max-precision cell should have no spatial children")
	}
}

func TestChildrenCounts(t *testing.T) {
	k := key(t, "9q8y", "2015-03", temporal.Month)
	ch := k.Children()
	// 32 spatial + 31 temporal (March days) + 32*31 spatiotemporal.
	want := 32 + 31 + 32*31
	if len(ch) != want {
		t.Errorf("children = %d, want %d", len(ch), want)
	}
	for _, c := range ch {
		if !k.Encloses(c) {
			t.Errorf("child %v escapes %v", c, k)
		}
	}
}

func TestEncloses(t *testing.T) {
	outer := key(t, "9q", "2015", temporal.Year)
	inner := key(t, "9q8y7", "2015-03-15", temporal.Day)
	if !outer.Encloses(inner) {
		t.Error("outer should enclose inner")
	}
	if inner.Encloses(outer) {
		t.Error("inner should not enclose outer")
	}
	if !outer.Encloses(outer) {
		t.Error("cell should enclose itself")
	}
	disjoint := key(t, "dr5r", "2015-03", temporal.Month)
	if outer.Encloses(disjoint) {
		t.Error("spatially disjoint cell enclosed")
	}
	laterYear := key(t, "9q8y", "2016-03", temporal.Month)
	if outer.Encloses(laterYear) {
		t.Error("temporally disjoint cell enclosed")
	}
}

func TestStatObserve(t *testing.T) {
	var s Stat
	for _, v := range []float64{3, -1, 7, 2} {
		s.Observe(v)
	}
	if s.Count != 4 || s.Sum != 11 || s.Min != -1 || s.Max != 7 {
		t.Errorf("stat = %+v", s)
	}
	if got := s.Mean(); math.Abs(got-2.75) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
}

func TestStatMeanEmpty(t *testing.T) {
	var s Stat
	if !math.IsNaN(s.Mean()) {
		t.Error("empty stat mean should be NaN")
	}
}

func TestStatMergeCommutativeAssociative(t *testing.T) {
	f := func(a, b, c []float64) bool {
		mk := func(vs []float64) Stat {
			var s Stat
			for _, v := range vs {
				s.Observe(boundVal(v))
			}
			return s
		}
		sa, sb, sc := mk(a), mk(b), mk(c)

		ab := sa
		ab.Merge(sb)
		ba := sb
		ba.Merge(sa)
		if ab != ba {
			return false
		}

		abc1 := ab
		abc1.Merge(sc)
		bc := sb
		bc.Merge(sc)
		abc2 := sa
		abc2.Merge(bc)
		return statsClose(abc1, abc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// boundVal maps arbitrary quick-generated floats into a realistic observation
// range so Sum cannot overflow; the invariants under test are about
// aggregation logic, not float saturation.
func boundVal(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func statsClose(a, b Stat) bool {
	if a.Count != b.Count {
		return false
	}
	const eps = 1e-9
	rel := func(x, y float64) bool {
		d := math.Abs(x - y)
		return d <= eps || d <= eps*math.Max(math.Abs(x), math.Abs(y))
	}
	return rel(a.Sum, b.Sum) && rel(a.Min, b.Min) && rel(a.Max, b.Max)
}

func TestStatMergeMatchesObserveAll(t *testing.T) {
	f := func(a, b []float64) bool {
		var sa, sb, all Stat
		for _, v := range a {
			v = boundVal(v)
			sa.Observe(v)
			all.Observe(v)
		}
		for _, v := range b {
			v = boundVal(v)
			sb.Observe(v)
			all.Observe(v)
		}
		sa.Merge(sb)
		return statsClose(sa, all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStatMergeEmpty(t *testing.T) {
	var empty Stat
	s := Stat{Count: 2, Sum: 4, Min: 1, Max: 3}
	merged := s
	merged.Merge(empty)
	if merged != s {
		t.Error("merging empty changed stat")
	}
	empty.Merge(s)
	if empty != s {
		t.Error("merging into empty should copy")
	}
}

func TestSummaryObserveMerge(t *testing.T) {
	var a Summary
	a.Observe(Temperature, 20)
	a.Observe(Temperature, 30)
	a.Observe(Humidity, 0.4)

	var b Summary
	b.Observe(Temperature, 10)
	b.Observe(Precipitation, 1.5)

	a.Merge(b)
	if a.Count("temperature") != 3 {
		t.Errorf("temperature count = %d", a.Count("temperature"))
	}
	if st, ok := a.Stat("temperature"); !ok || st.Min != 10 || st.Max != 30 {
		t.Errorf("temperature stat = %+v", st)
	}
	if a.Count("precipitation") != 1 || a.Count("humidity") != 1 {
		t.Error("attribute union lost entries")
	}
	attrs := a.Attrs()
	if len(attrs) != 3 || attrs[0] != "humidity" {
		t.Errorf("attrs = %v", attrs)
	}
}

func TestSummaryZeroValueUsable(t *testing.T) {
	var s Summary
	s.Observe(Snow, 1)
	if s.Count("snow") != 1 {
		t.Error("zero-value summary should accept observations")
	}
	var m Summary
	m.Merge(s)
	if m.Count("snow") != 1 {
		t.Error("zero-value summary should accept merges")
	}
}

// TestSummaryCloneIndependent: a summary is a value, so a copy is a clone.
func TestSummaryCloneIndependent(t *testing.T) {
	var s Summary
	s.Observe(Snow, 5)
	c := s
	c.Observe(Snow, 7)
	if s.Count("snow") != 1 || c.Count("snow") != 2 {
		t.Error("copy not independent")
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if !s.Empty() {
		t.Error("zero summary should be empty")
	}
	s.Observe(Snow, 0)
	if s.Empty() {
		t.Error("summary with observation reported empty")
	}
}

// TestSummaryLayout pins the two properties the data model rests on. Go maps
// store elements larger than 128 bytes indirectly, one heap allocation per
// element, and a pointer anywhere in the value makes every map bucket and
// graph slab something the collector must scan.
func TestSummaryLayout(t *testing.T) {
	if n := unsafe.Sizeof(Summary{}); n > 128 {
		t.Errorf("Summary is %d bytes; over 128 a Go map stores each element behind its own allocation, "+
			"so query.Result costs one allocation per cell again (a fifth attribute needs a narrower Stat or a side table)", n)
	}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Ptr, reflect.Map, reflect.Slice, reflect.String, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %v: Summary must stay pointer-free so copies never alias and slabs of cells are not scanned", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(Summary{}), "Summary")
	walk(reflect.TypeOf(Cell{}), "Cell")
}

// TestSchemaNamesSortedAndResolvable: walking a summary by index must visit
// attributes in name order (the wire and export formats print them so), and
// every name must resolve back to its index.
func TestSchemaNamesSortedAndResolvable(t *testing.T) {
	if !sort.StringsAreSorted(attrNames[:]) {
		t.Errorf("schema names out of order: %v", attrNames)
	}
	for a, name := range attrNames {
		if name == "" {
			t.Fatalf("attribute %d has no name", a)
		}
		if got, ok := AttrByName(name); !ok || got != Attr(a) || got.String() != name {
			t.Errorf("AttrByName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := AttrByName("wind"); ok {
		t.Error("name outside the schema resolved")
	}
}

// TestSummaryMergeEmptyStatLeavesNoPhantom: merging a side whose stat is
// empty must not make the attribute appear (the map-backed summary wrote a
// zero-count entry that Attrs listed and the wire encoded).
func TestSummaryMergeEmptyStatLeavesNoPhantom(t *testing.T) {
	var a, b Summary
	a.Observe(Humidity, 0.5)
	b.Stats[Snow] = Stat{} // an explicitly empty stat on the other side
	a.Merge(b)
	if got := a.Attrs(); len(got) != 1 || got[0] != "humidity" {
		t.Errorf("attrs after merging an empty stat = %v", got)
	}
	if _, ok := a.Stat("snow"); ok {
		t.Error("empty stat reported present")
	}
}

func TestExpDecay(t *testing.T) {
	d := ExpDecay(10)
	if d(0) != 1 {
		t.Error("decay at 0 must be 1")
	}
	if got := d(10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("decay at half-life = %v, want 0.5", got)
	}
	if d(20) >= d(10) || d(10) >= d(5) {
		t.Error("decay must be decreasing")
	}
	nod := ExpDecay(0)
	if nod(1000) != 1 {
		t.Error("zero half-life should disable decay")
	}
}

func TestCellTouchAccumulates(t *testing.T) {
	c := &Cell{Key: MustKey("9q8y7", "2015-03", temporal.Month)}
	d := ExpDecay(0) // no decay: freshness is pure access count * inc
	c.Touch(1, 1.0, d)
	c.Touch(2, 1.0, d)
	c.Touch(3, 1.0, d)
	if c.Freshness != 3 || c.Accesses != 3 || c.LastTouch != 3 {
		t.Errorf("cell after 3 touches: %+v", c)
	}
}

func TestCellFreshnessDecays(t *testing.T) {
	c := &Cell{Key: MustKey("9q8y7", "2015-03", temporal.Month)}
	d := ExpDecay(10)
	c.Touch(0, 8, d)
	if got := c.FreshnessAt(10, d); math.Abs(got-4) > 1e-9 {
		t.Errorf("freshness after one half-life = %v, want 4", got)
	}
	// Touching later first decays, then adds.
	c.Touch(10, 1, d)
	if math.Abs(c.Freshness-5) > 1e-9 {
		t.Errorf("freshness after decayed touch = %v, want 5", c.Freshness)
	}
}

func TestDisperseDoesNotCountAccess(t *testing.T) {
	c := &Cell{Key: MustKey("9q8y7", "2015-03", temporal.Month)}
	d := ExpDecay(0)
	c.Disperse(1, 0.25, d)
	if c.Accesses != 0 {
		t.Error("dispersion must not count as access")
	}
	if c.Freshness != 0.25 {
		t.Errorf("freshness = %v", c.Freshness)
	}
}

// TestRecencyBeatsStaleFrequency encodes the paper's freshness intent: a cell
// accessed often long ago eventually scores below a recently accessed one.
func TestRecencyBeatsStaleFrequency(t *testing.T) {
	d := ExpDecay(50)
	old := &Cell{Key: MustKey("9q8y7", "2015-03", temporal.Month)}
	for i := int64(0); i < 20; i++ {
		old.Touch(i, 1, d)
	}
	recent := &Cell{Key: MustKey("9q8y6", "2015-03", temporal.Month)}
	recent.Touch(500, 1, d)
	recent.Touch(501, 1, d)

	now := int64(502)
	if old.FreshnessAt(now, d) >= recent.FreshnessAt(now, d) {
		t.Errorf("stale frequent cell (%v) should score below recent cell (%v)",
			old.FreshnessAt(now, d), recent.FreshnessAt(now, d))
	}
}

func BenchmarkSummaryObserve(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Observe(Temperature, float64(i%40))
	}
}

func BenchmarkKeyChildren(b *testing.B) {
	k := MustKey("9q8y", "2015-03", temporal.Month)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := k.Children(); len(got) == 0 {
			b.Fatal("no children")
		}
	}
}

// textKey is a cell key as the two strings it used to be, with the
// containment test written the way it was on text: geohash prefix, then a
// comparison of parsed time spans.
type textKey struct{ gh, label string }

func (k Key) text() textKey { return textKey{k.Geohash.String(), k.Time.String()} }

func textEncloses(t *testing.T, k, o Key) bool {
	a, b := k.text(), o.text()
	if !strings.HasPrefix(b.gh, a.gh) {
		return false
	}
	ks, _ := k.Time.Start()
	ke, _ := k.Time.End()
	os, _ := o.Time.Start()
	oe, _ := o.Time.End()
	return !os.Before(ks) && !oe.After(ke)
}

// TestKeyAlgebraMatchesText holds the integer key algebra to its text on
// seeded random keys over precisions 1-8 and all four resolutions: the
// printed form, the level, the order, containment, and every parent and
// child relation.
func TestKeyAlgebraMatchesText(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomKey := func() Key {
		ts := time.Date(1990+rng.Intn(40), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), 0, 0, 0, time.UTC)
		k, err := KeyOf(
			geohash.EncodeHash(-90+180*rng.Float64(), -180+360*rng.Float64(), 1+rng.Intn(MaxSpatialPrecision)),
			temporal.At(ts, temporal.Resolution(rng.Intn(temporal.NumResolutions))))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	var keys []Key
	for i := 0; i < 400; i++ {
		k := randomKey()
		keys = append(keys, k)
		tk := k.text()
		if k.String() != tk.gh+"@"+tk.label {
			t.Fatalf("String = %q, labels are %q and %q", k, tk.gh, tk.label)
		}
		if back, err := NewKey(tk.gh, temporal.MustParse(tk.label, k.Time.Res)); err != nil || back != k {
			t.Fatalf("NewKey(%q, %q) = %v, %v; want %v", tk.gh, tk.label, back, err, k)
		}
		if want := int(k.Time.Res)*MaxSpatialPrecision + len(tk.gh) - 1; k.Level() != want {
			t.Fatalf("%v: Level = %d, want %d", k, k.Level(), want)
		}
		// Relatives: parents enclose, children are enclosed, and each is one
		// level step away in the right direction.
		for _, p := range k.Parents() {
			if !p.Encloses(k) || k.Encloses(p) || !textEncloses(t, p, k) || p.Level() >= k.Level() {
				t.Fatalf("parent %v of %v does not enclose it", p, k)
			}
			keys = append(keys, p)
		}
		if sc, ok := k.SpatialChildren(); ok {
			c := sc[rng.Intn(len(sc))]
			if !k.Encloses(c) || !textEncloses(t, k, c) || c.text().gh[:len(tk.gh)] != tk.gh || c.Level() != k.Level()+1 {
				t.Fatalf("spatial child %v of %v", c, k)
			}
			keys = append(keys, c)
		}
		if tc, ok := k.TemporalChildren(); ok {
			c := tc[rng.Intn(len(tc))]
			if !k.Encloses(c) || !textEncloses(t, k, c) || !strings.HasPrefix(c.text().label, tk.label) {
				t.Fatalf("temporal child %v of %v", c, k)
			}
			keys = append(keys, c)
		}
	}
	for i := 0; i < 20000; i++ {
		a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		if got, want := a.Encloses(b), textEncloses(t, a, b); got != want {
			t.Fatalf("%v.Encloses(%v) = %v, on text %v", a, b, got, want)
		}
		ta, tb := a.text(), b.text()
		if got, want := a.Less(b), ta.gh < tb.gh || ta.gh == tb.gh && ta.label < tb.label; got != want {
			t.Fatalf("%v.Less(%v) = %v, text order says %v", a, b, got, want)
		}
	}
}
