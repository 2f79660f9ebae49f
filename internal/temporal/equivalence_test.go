package temporal

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The reference below is the text-and-time.Time label the package had before
// buckets: every operation parsed or formatted its text. The integer algebra
// is held to it on a table of calendar edges and on seeded random instants.

type refLabel struct {
	res  Resolution
	text string
}

func refAt(t time.Time, r Resolution) refLabel {
	return refLabel{r, t.UTC().Format(layouts[r])}
}

func (l refLabel) start(t *testing.T) time.Time {
	s, err := time.Parse(layouts[l.res], l.text)
	if err != nil {
		t.Fatalf("reference cannot parse %q at %v: %v", l.text, l.res, err)
	}
	return s.UTC()
}

func (l refLabel) end(t *testing.T) time.Time {
	s := l.start(t)
	switch l.res {
	case Year:
		return s.AddDate(1, 0, 0)
	case Month:
		return s.AddDate(0, 1, 0)
	case Day:
		return s.AddDate(0, 0, 1)
	}
	return s.Add(time.Hour)
}

func (l refLabel) children(t *testing.T) []string {
	var out []string
	for s, e := l.start(t), l.end(t); s.Before(e); {
		out = append(out, s.Format(layouts[l.res+1]))
		switch l.res + 1 {
		case Month:
			s = s.AddDate(0, 1, 0)
		case Day:
			s = s.AddDate(0, 0, 1)
		default:
			s = s.Add(time.Hour)
		}
	}
	return out
}

func refCover(t *testing.T, r Range, res Resolution) []string {
	var out []string
	for l := refAt(r.Start, res); ; {
		out = append(out, l.text)
		e := l.end(t)
		if !e.Before(r.End) {
			return out
		}
		l = refAt(e, res)
	}
}

// calendarEdges are the instants around which calendar arithmetic breaks:
// month and year rollovers, February in leap and non-leap years (including
// the century rules), the epoch, and both ends of the label format.
func calendarEdges() []time.Time {
	at := func(y int, m time.Month, d, h int) time.Time { return time.Date(y, m, d, h, 0, 0, 0, time.UTC) }
	base := []time.Time{
		at(0, 1, 1, 0), at(0, 12, 31, 23), at(1, 1, 1, 0),
		at(1899, 12, 31, 23), at(1900, 2, 28, 23), at(1900, 3, 1, 0), // 1900: not a leap year
		at(1969, 12, 31, 23), at(1970, 1, 1, 0), at(1970, 1, 1, 1),
		at(2000, 2, 28, 23), at(2000, 2, 29, 0), at(2000, 2, 29, 23), at(2000, 3, 1, 0), // 2000: leap
		at(2015, 1, 31, 23), at(2015, 2, 1, 0), at(2015, 2, 28, 23), at(2015, 3, 1, 0),
		at(2015, 12, 31, 23), at(2016, 1, 1, 0), at(2016, 2, 29, 12), at(2016, 3, 1, 0),
		at(2100, 2, 28, 23), at(2100, 3, 1, 0),
		at(9999, 1, 1, 0), at(9999, 2, 28, 23), at(9999, 12, 31, 0), at(9999, 12, 31, 23),
	}
	out := base
	for _, b := range base {
		out = append(out, b.Add(59*time.Minute+59*time.Second+999*time.Millisecond), b.Add(-time.Nanosecond))
	}
	return out
}

func randomInstants(seed int64, n int) []time.Time {
	rng := rand.New(rand.NewSource(seed))
	lo := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	hi := time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
	out := make([]time.Time, n)
	for i := range out {
		out[i] = time.Unix(lo+rng.Int63n(hi-lo), rng.Int63n(1e9)).UTC()
	}
	return out
}

func TestLabelAlgebraMatchesText(t *testing.T) {
	instants := append(calendarEdges(), randomInstants(1, 5000)...)
	for _, ts := range instants {
		if ts.Year() < 0 {
			continue // one nanosecond before year 0: outside the label format
		}
		for r := Year; r <= Hour; r++ {
			ref := refAt(ts, r)
			l := At(ts, r)
			if l.String() != ref.text || !l.Valid() {
				t.Fatalf("At(%v, %v) = %q (valid=%v), text label is %q", ts, r, l, l.Valid(), ref.text)
			}
			if p, err := Parse(ref.text, r); err != nil || p != l {
				t.Fatalf("Parse(%q, %v) = %+v, %v; want %+v", ref.text, r, p, err, l)
			}
			if p, err := ParseBytes([]byte(ref.text), r); err != nil || p != l {
				t.Fatalf("ParseBytes(%q, %v) = %+v, %v; want %+v", ref.text, r, p, err, l)
			}
			start, _ := l.Start()
			end, _ := l.End()
			if !start.Equal(ref.start(t)) || !end.Equal(ref.end(t)) {
				t.Fatalf("%v: span [%v, %v), text label spans [%v, %v)", l, start, end, ref.start(t), ref.end(t))
			}
			if !l.Contains(ts) || l.Contains(end) || !l.Contains(start) || l.Contains(start.Add(-time.Nanosecond)) {
				t.Fatalf("%v: Contains disagrees with its own span around %v", l, ts)
			}
			next, _ := l.Next()
			prev, _ := l.Prev()
			if want := ref.end(t).Format(layouts[r]); next.String() != want {
				t.Fatalf("%v.Next = %q, text label gives %q", l, next, want)
			}
			if start.Year() > 0 || r != Year && start.YearDay() > 1 {
				if want := ref.start(t).Add(-time.Second).Format(layouts[r]); prev.String() != want {
					t.Fatalf("%v.Prev = %q, text label gives %q", l, prev, want)
				}
			}
			if p, ok := l.Parent(); ok != (r > Year) || ok && p.String() != ref.start(t).Format(layouts[r-1]) {
				t.Fatalf("%v.Parent = %q, %v", l, p, ok)
			}
			kids, ok := l.Children()
			if ok != (r < Hour) {
				t.Fatalf("%v.Children ok = %v", l, ok)
			}
			if ok {
				want := ref.children(t)
				if len(kids) != len(want) {
					t.Fatalf("%v has %d children, text label %d", l, len(kids), len(want))
				}
				for i, k := range kids {
					if k.String() != want[i] {
						t.Fatalf("%v child %d = %q, text label gives %q", l, i, k, want[i])
					}
					if kp, _ := k.Parent(); kp != l || !l.Encloses(k) || k.Encloses(l) {
						t.Fatalf("%v: child %v does not nest", l, k)
					}
				}
			}
		}
	}
}

// TestYear9999Successor pins the one place the integer label leaves the text
// format: the label after the last representable one still prints what
// time.Format printed, and is not Valid.
func TestYear9999Successor(t *testing.T) {
	for r := Year; r <= Hour; r++ {
		last := At(time.Date(9999, 12, 31, 23, 0, 0, 0, time.UTC), r)
		next, err := last.Next()
		if err != nil {
			t.Fatal(err)
		}
		want := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Format(layouts[r])
		if next.Valid() || next.String() != want {
			t.Errorf("%v.Next = %q (valid=%v), want invalid %q", last, next, next.Valid(), want)
		}
		if back, _ := next.Prev(); back != last {
			t.Errorf("Prev(Next(%v)) = %v", last, back)
		}
		if _, err := Parse(next.String(), r); err == nil {
			t.Errorf("Parse accepts %q", next)
		}
	}
}

func TestParseAcceptsOnlyCanonicalText(t *testing.T) {
	for _, c := range []struct {
		text string
		res  Resolution
	}{
		{"2015-02-02T5", Hour}, {"2015-2-02", Day}, {"15", Year}, {"02015", Year}, {"+015", Year},
		{"2015-02-29", Day}, {"2100-02-29", Day}, {"2015-04-31", Day}, {"2015-00", Month}, {"2015-13", Month},
		{"2015-02-00", Day}, {"2015-02-02T24", Hour}, {"2015/02", Month}, {"2015-02-02 05", Hour},
		{"2015-02", Day}, {"2015-02-02", Month}, {"", Year}, {"2015", Resolution(4)}, {"2015", Resolution(-1)},
	} {
		if l, err := Parse(c.text, c.res); err == nil {
			t.Errorf("Parse(%q, %v) = %v, want an error", c.text, c.res, l)
		}
	}
	for _, text := range []string{"2016-02-29", "2000-02-29", "0000-01-01", "9999-12-31"} {
		if l, err := Parse(text, Day); err != nil || l.String() != text {
			t.Errorf("Parse(%q, Day) = %v, %v", text, l, err)
		}
	}
}

func TestCoverMatchesTextWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	starts := append(calendarEdges(), randomInstants(3, 300)...)
	for _, s := range starts {
		if s.Year() < 0 || s.Year() > 9990 {
			continue
		}
		for r := Year; r <= Hour; r++ {
			span := time.Duration(1+rng.Int63n(72*3600)) * time.Second
			if r <= Month {
				span *= 200
			}
			rg := Range{Start: s, End: s.Add(span)}
			want := refCover(t, rg, r)
			got, err := rg.Cover(r)
			if err != nil {
				t.Fatal(err)
			}
			n, err := rg.CoverCount(r)
			if err != nil || n != len(want) || len(got) != len(want) {
				t.Fatalf("Cover(%v, %v): %d labels, CoverCount %d (%v), text walk %d", rg, r, len(got), n, err, len(want))
			}
			for i := range got {
				if got[i].String() != want[i] {
					t.Fatalf("Cover(%v, %v)[%d] = %q, text walk gives %q", rg, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCompareIsTextOrder pins the property the exporters lean on: Compare
// orders valid labels, of mixed resolutions, as comparing their text does.
func TestCompareIsTextOrder(t *testing.T) {
	var labels []Label
	for _, ts := range append(calendarEdges(), randomInstants(4, 200)...) {
		if ts.Year() < 0 {
			continue
		}
		for r := Year; r <= Hour; r++ {
			labels = append(labels, At(ts, r))
		}
	}
	byCompare := append([]Label(nil), labels...)
	sort.SliceStable(byCompare, func(i, j int) bool { return byCompare[i].Compare(byCompare[j]) < 0 })
	byText := append([]Label(nil), labels...)
	sort.SliceStable(byText, func(i, j int) bool { return byText[i].String() < byText[j].String() })
	for i := range byCompare {
		if byCompare[i] != byText[i] {
			t.Fatalf("position %d: Compare order has %v, text order %v", i, byCompare[i], byText[i])
		}
	}
}

func TestOverlapsAndEncloses(t *testing.T) {
	feb := MustParse("2015-02", Month)
	day := MustParse("2015-02-28", Day)
	mar1 := MustParse("2015-03-01", Day)
	hour := MustParse("2015-02-28T23", Hour)
	if !feb.Encloses(day) || !feb.Encloses(hour) || !day.Encloses(hour) || !feb.Encloses(feb) {
		t.Error("Encloses misses a nested label")
	}
	if feb.Encloses(mar1) || day.Encloses(feb) || hour.Encloses(day) {
		t.Error("Encloses accepts a label that is not nested")
	}
	if !feb.Overlaps(day) || !day.Overlaps(feb) || !hour.Overlaps(feb) {
		t.Error("Overlaps misses a shared instant")
	}
	if feb.Overlaps(mar1) || mar1.Overlaps(hour) || (Label{Res: 9}).Overlaps(feb) {
		t.Error("Overlaps accepts disjoint or malformed labels")
	}
}
