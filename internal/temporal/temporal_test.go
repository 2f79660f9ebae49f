package temporal

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResolutionLadder(t *testing.T) {
	if f, ok := Year.Finer(); !ok || f != Month {
		t.Errorf("Year.Finer() = %v,%v", f, ok)
	}
	if f, ok := Hour.Finer(); ok {
		t.Errorf("Hour.Finer() should fail, got %v", f)
	}
	if c, ok := Hour.Coarser(); !ok || c != Day {
		t.Errorf("Hour.Coarser() = %v,%v", c, ok)
	}
	if _, ok := Year.Coarser(); ok {
		t.Error("Year.Coarser() should fail")
	}
	if NumResolutions != 4 {
		t.Errorf("NumResolutions = %d, want 4", NumResolutions)
	}
}

func TestResolutionStrings(t *testing.T) {
	for r, want := range map[Resolution]string{Year: "Year", Month: "Month", Day: "Day", Hour: "Hour"} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", int(r), r.String())
		}
	}
	if Resolution(42).String() == "" {
		t.Error("invalid resolution should still format")
	}
	if Resolution(42).Valid() {
		t.Error("Resolution(42) reported valid")
	}
}

func TestAtFormatsPaperLabels(t *testing.T) {
	ts := time.Date(2015, 3, 7, 14, 30, 0, 0, time.UTC)
	cases := map[Resolution]string{
		Year:  "2015",
		Month: "2015-03",
		Day:   "2015-03-07",
		Hour:  "2015-03-07T14",
	}
	for r, want := range cases {
		if got := At(ts, r); got.String() != want {
			t.Errorf("At(..., %v) = %q, want %q", r, got.String(), want)
		}
	}
}

func TestParseRejectsBadLabels(t *testing.T) {
	bad := []struct {
		text string
		res  Resolution
	}{
		{"2015-13", Month},
		{"2015-02-30", Day},
		{"hello", Year},
		{"2015-03", Day},
		{"2015", Resolution(9)},
	}
	for _, c := range bad {
		if _, err := Parse(c.text, c.res); err == nil {
			t.Errorf("Parse(%q,%v) accepted", c.text, c.res)
		}
	}
	if l, err := Parse("2015-03", Month); err != nil || !l.Valid() {
		t.Errorf("Parse valid month: %v %v", l, err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad label should panic")
		}
	}()
	MustParse("nope", Month)
}

func TestStartEnd(t *testing.T) {
	l := MustParse("2015-02", Month)
	s, err := l.Start()
	if err != nil {
		t.Fatal(err)
	}
	e, err := l.End()
	if err != nil {
		t.Fatal(err)
	}
	if s != time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC) {
		t.Errorf("Start = %v", s)
	}
	if e != time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC) {
		t.Errorf("End = %v (February must respect calendar length)", e)
	}
}

func TestContains(t *testing.T) {
	l := MustParse("2015-02-02", Day)
	if !l.Contains(time.Date(2015, 2, 2, 23, 59, 59, 0, time.UTC)) {
		t.Error("end-of-day instant should be inside")
	}
	if l.Contains(time.Date(2015, 2, 3, 0, 0, 0, 0, time.UTC)) {
		t.Error("next midnight should be outside (half-open)")
	}
	if l.Contains(time.Date(2015, 2, 1, 23, 59, 59, 0, time.UTC)) {
		t.Error("previous day should be outside")
	}
}

func TestParentChild(t *testing.T) {
	day := MustParse("2015-03-15", Day)
	p, ok := day.Parent()
	if !ok || p.String() != "2015-03" || p.Res != Month {
		t.Errorf("Parent = %v,%v", p, ok)
	}
	year := MustParse("2015", Year)
	if _, ok := year.Parent(); ok {
		t.Error("Year should have no parent")
	}

	feb, _ := Parse("2015-02", Month)
	ch, ok := feb.Children()
	if !ok || len(ch) != 28 {
		t.Fatalf("2015-02 children = %d,%v; want 28 days", len(ch), ok)
	}
	if ch[0].String() != "2015-02-01" || ch[27].String() != "2015-02-28" {
		t.Errorf("children range wrong: %v .. %v", ch[0], ch[27])
	}

	leapFeb := MustParse("2016-02", Month)
	if ch, _ := leapFeb.Children(); len(ch) != 29 {
		t.Errorf("2016-02 children = %d, want 29 (leap year)", len(ch))
	}

	hour := MustParse("2015-02-02T10", Hour)
	if _, ok := hour.Children(); ok {
		t.Error("Hour should have no children")
	}

	y := MustParse("2015", Year)
	if ch, _ := y.Children(); len(ch) != 12 {
		t.Errorf("year children = %d, want 12", len(ch))
	}
	d := MustParse("2015-02-02", Day)
	if ch, _ := d.Children(); len(ch) != 24 {
		t.Errorf("day children = %d, want 24", len(ch))
	}
}

func TestChildrenNestInParent(t *testing.T) {
	parent := MustParse("2015-06", Month)
	ps, _ := parent.Start()
	pe, _ := parent.End()
	ch, _ := parent.Children()
	for _, c := range ch {
		cs, _ := c.Start()
		ce, _ := c.End()
		if cs.Before(ps) || ce.After(pe) {
			t.Errorf("child %v [%v,%v) escapes parent [%v,%v)", c, cs, ce, ps, pe)
		}
		back, ok := c.Parent()
		if !ok || back != parent {
			t.Errorf("child %v parent = %v, want %v", c, back, parent)
		}
	}
}

// TestPaperTemporalNeighbors checks the exact example from the paper: the
// temporal neighbors of 2015-03 at Month resolution are 2015-02 and 2015-04.
func TestPaperTemporalNeighbors(t *testing.T) {
	l := MustParse("2015-03", Month)
	ns, err := l.Neighbors()
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 || ns[0].String() != "2015-02" || ns[1].String() != "2015-04" {
		t.Errorf("Neighbors(2015-03) = %v, want [2015-02 2015-04]", ns)
	}
}

func TestNextPrevCrossBoundaries(t *testing.T) {
	dec := MustParse("2015-12", Month)
	n, err := dec.Next()
	if err != nil || n.String() != "2016-01" {
		t.Errorf("Next(2015-12) = %v,%v", n, err)
	}
	jan := MustParse("2016-01-01", Day)
	p, err := jan.Prev()
	if err != nil || p.String() != "2015-12-31" {
		t.Errorf("Prev(2016-01-01) = %v,%v", p, err)
	}
	h := MustParse("2015-02-02T00", Hour)
	ph, _ := h.Prev()
	if ph.String() != "2015-02-01T23" {
		t.Errorf("Prev hour across midnight = %v", ph)
	}
}

func TestNextPrevInverse(t *testing.T) {
	f := func(monthOffset uint16) bool {
		base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, int(monthOffset%240), 0)
		for _, r := range []Resolution{Year, Month, Day, Hour} {
			l := At(base, r)
			n, err := l.Next()
			if err != nil {
				return false
			}
			back, err := n.Prev()
			if err != nil || back != l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRangeCover(t *testing.T) {
	r := DayRange(2015, 2, 2)
	labels, err := r.Cover(Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 || labels[0].String() != "2015-02-02" {
		t.Errorf("day range day cover = %v", labels)
	}
	hours, err := r.Cover(Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(hours) != 24 {
		t.Errorf("day range hour cover = %d labels, want 24", len(hours))
	}
	months, err := r.Cover(Month)
	if err != nil || len(months) != 1 || months[0].String() != "2015-02" {
		t.Errorf("day range month cover = %v,%v", months, err)
	}
}

func TestRangeCoverSpanningBoundary(t *testing.T) {
	r, err := NewRange(
		time.Date(2015, 1, 30, 0, 0, 0, 0, time.UTC),
		time.Date(2015, 2, 3, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	days, err := r.Cover(Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 4 {
		t.Fatalf("cover = %v, want 4 days", days)
	}
	if days[0].String() != "2015-01-30" || days[3].String() != "2015-02-02" {
		t.Errorf("cover endpoints wrong: %v", days)
	}
	n, err := r.CoverCount(Day)
	if err != nil || n != 4 {
		t.Errorf("CoverCount = %d,%v", n, err)
	}
}

func TestRangeValidation(t *testing.T) {
	now := time.Now()
	if _, err := NewRange(now, now); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewRange(now, now.Add(-time.Hour)); err == nil {
		t.Error("inverted range accepted")
	}
	bad := Range{}
	if _, err := bad.Cover(Day); err == nil {
		t.Error("Cover on invalid range accepted")
	}
	good := DayRange(2015, 2, 2)
	if _, err := good.Cover(Resolution(17)); err == nil {
		t.Error("Cover with invalid resolution accepted")
	}
}

func TestRangeIntersects(t *testing.T) {
	a := DayRange(2015, 2, 2)
	b := DayRange(2015, 2, 3)
	if a.Intersects(b) {
		t.Error("adjacent half-open day ranges must not intersect")
	}
	c, _ := NewRange(
		time.Date(2015, 2, 2, 12, 0, 0, 0, time.UTC),
		time.Date(2015, 2, 3, 12, 0, 0, 0, time.UTC))
	if !a.Intersects(c) || !c.Intersects(b) {
		t.Error("overlapping ranges reported disjoint")
	}
}

func TestRangeContains(t *testing.T) {
	r := DayRange(2015, 2, 2)
	if !r.Contains(r.Start) {
		t.Error("range must contain its start")
	}
	if r.Contains(r.End) {
		t.Error("range must not contain its (exclusive) end")
	}
	if r.Duration() != 24*time.Hour {
		t.Errorf("Duration = %v", r.Duration())
	}
}

func TestResolutionDuration(t *testing.T) {
	if Hour.Duration() != time.Hour || Day.Duration() != 24*time.Hour {
		t.Error("fine durations wrong")
	}
	if Year.Duration() <= Month.Duration() || Month.Duration() <= Day.Duration() {
		t.Error("durations must decrease with finer resolutions")
	}
	if Resolution(99).Duration() != 0 {
		t.Error("invalid resolution should have zero duration")
	}
}

func BenchmarkRangeCoverDayOverMonth(b *testing.B) {
	r, _ := NewRange(
		time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC))
	for i := 0; i < b.N; i++ {
		if _, err := r.Cover(Day); err != nil {
			b.Fatal(err)
		}
	}
}
