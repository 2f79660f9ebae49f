// Package temporal implements the temporal half of STASH's spatiotemporal
// hierarchy: a fixed ladder of resolutions (Year → Month → Day → Hour), label
// encoding for each, and the parent/children/neighbor algebra that mirrors
// what package geohash provides for space.
//
// The paper labels cells with strings such as "2015-03" (Month resolution);
// this package reproduces that label format and adds Year, Day and Hour rungs
// so that roll-up and drill-down traverse a real hierarchy.
package temporal

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Resolution is a rung on the temporal hierarchy, ordered from coarsest (Year)
// to finest (Hour). The zero value is Year. It is one byte wide so a Label —
// and with it a cell key — stays small and pointer-free.
type Resolution int8

// The temporal resolutions supported by STASH, coarse to fine.
const (
	Year Resolution = iota
	Month
	Day
	Hour
	numResolutions
)

// NumResolutions is the paper's n_t: the count of temporal resolutions.
const NumResolutions = int(numResolutions)

var resolutionNames = [...]string{"Year", "Month", "Day", "Hour"}

func (r Resolution) String() string {
	if r < 0 || int(r) >= len(resolutionNames) {
		return fmt.Sprintf("Resolution(%d)", int(r))
	}
	return resolutionNames[r]
}

// Valid reports whether r is one of the defined resolutions.
func (r Resolution) Valid() bool { return r >= Year && r < numResolutions }

// Finer returns the next finer resolution; ok is false at Hour.
func (r Resolution) Finer() (Resolution, bool) {
	if r+1 >= numResolutions {
		return r, false
	}
	return r + 1, true
}

// Coarser returns the next coarser resolution; ok is false at Year.
func (r Resolution) Coarser() (Resolution, bool) {
	if r <= Year {
		return r, false
	}
	return r - 1, true
}

// Duration returns the nominal span of one label at this resolution. Month
// and Year use nominal civil lengths; exact spans depend on the label.
func (r Resolution) Duration() time.Duration {
	switch r {
	case Year:
		return 365 * 24 * time.Hour
	case Month:
		return 30 * 24 * time.Hour
	case Day:
		return 24 * time.Hour
	case Hour:
		return time.Hour
	}
	return 0
}

// layouts maps a resolution to its label layout in time.Format notation.
var layouts = [...]string{"2006", "2006-01", "2006-01-02", "2006-01-02T15"}

// ErrBadLabel reports a label that does not parse at the given resolution.
var ErrBadLabel = errors.New("temporal: bad label")

// Label is a temporal cell identifier: a resolution plus the ordinal of the
// bucket at that resolution.
//
//	Year   the (proleptic Gregorian, astronomical) year number
//	Month  year*12 + (month-1)
//	Day    days since 1970-01-01
//	Hour   hours since 1970-01-01T00
//
// All labels are in UTC. Consecutive buckets are consecutive integers, so
// previous/next, parent, children and range covers are integer arithmetic;
// the paper's label text ("2015-03") exists only at the edges — Parse reads
// it, String and AppendText print it. A label is Valid when its year lies in
// [0, 9999], the span the fixed-width text can carry. Labels are comparable
// and 8 bytes wide. Build them with At or Parse.
type Label struct {
	Res    Resolution
	Bucket int32
}

const (
	secPerHour  = 3600
	secPerDay   = 86400
	hoursPerDay = 24
)

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// daysFromCivil returns the days since 1970-01-01 of a proleptic Gregorian
// date (month 1-12, day 1-31), for any year.
func daysFromCivil(y, m, d int64) int64 {
	if m <= 2 {
		y--
	}
	era := floorDiv(y, 400)
	yoe := y - era*400
	doy := (153*((m+9)%12)+2)/5 + d - 1 // day of a year that starts in March
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

// civilFromDays is the inverse of daysFromCivil.
func civilFromDays(z int64) (y, m, d int64) {
	z += 719468
	era := floorDiv(z, 146097)
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = doy - (153*mp+2)/5 + 1
	m = mp + 3
	if m > 12 {
		m -= 12
	}
	y = yoe + era*400
	if m <= 2 {
		y++
	}
	return y, m, d
}

// bucket32 narrows an ordinal to the Label field, saturating: instants
// hundreds of millennia out collapse onto the last bucket, which is not Valid.
func bucket32(b int64) int32 {
	if b > math.MaxInt32 {
		return math.MaxInt32
	}
	if b < math.MinInt32 {
		return math.MinInt32
	}
	return int32(b)
}

// At returns the label containing the instant t at resolution r.
func At(t time.Time, r Resolution) Label {
	var b int64
	switch r {
	case Year:
		b = int64(t.UTC().Year())
	case Month:
		y, m, _ := t.UTC().Date()
		b = int64(y)*12 + int64(m) - 1
	case Day:
		b = floorDiv(t.Unix(), secPerDay)
	case Hour:
		b = floorDiv(t.Unix(), secPerHour)
	}
	return Label{Res: r, Bucket: bucket32(b)}
}

// civil returns the label's first day as a civil date plus its hour.
func (l Label) civil() (y, m, d, h int64) {
	b := int64(l.Bucket)
	switch l.Res {
	case Year:
		return b, 1, 1, 0
	case Month:
		y = floorDiv(b, 12)
		return y, b - y*12 + 1, 1, 0
	case Hour:
		day := floorDiv(b, hoursPerDay)
		h = b - day*hoursPerDay
		b = day
	}
	y, m, d = civilFromDays(b)
	return y, m, d, h
}

// startHour returns the label's first hour as an Hour ordinal: the common
// unit in which spans of different resolutions compare.
func (l Label) startHour() int64 {
	switch l.Res {
	case Day:
		return int64(l.Bucket) * hoursPerDay
	case Hour:
		return int64(l.Bucket)
	}
	y, m, _, _ := l.civil()
	return daysFromCivil(y, m, 1) * hoursPerDay
}

// endHour returns the first hour after the label's span.
func (l Label) endHour() int64 {
	return Label{Res: l.Res, Bucket: l.Bucket + 1}.startHour()
}

// digits parses a fixed-width run of decimal digits.
func digits[S string | []byte](s S, from, n int) (int64, bool) {
	var v int64
	for i := from; i < from+n; i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// parse reads the canonical label text — exactly what AppendText prints —
// from a string or a byte slice.
func parse[S string | []byte](text S, r Resolution) (Label, bool) {
	if !r.Valid() || len(text) != len(layouts[r]) {
		return Label{}, false
	}
	y, ok := digits(text, 0, 4)
	m, d, h := int64(1), int64(1), int64(0)
	if r >= Month {
		var mok bool
		m, mok = digits(text, 5, 2)
		ok = ok && mok && text[4] == '-' && m >= 1 && m <= 12
	}
	if r >= Day {
		var dok bool
		d, dok = digits(text, 8, 2)
		ok = ok && dok && text[7] == '-' && d >= 1
	}
	if r >= Hour {
		var hok bool
		h, hok = digits(text, 11, 2)
		ok = ok && hok && text[10] == 'T' && h < hoursPerDay
	}
	if !ok {
		return Label{}, false
	}
	switch r {
	case Year:
		return Label{Res: r, Bucket: int32(y)}, true
	case Month:
		return Label{Res: r, Bucket: int32(y*12 + m - 1)}, true
	}
	day := daysFromCivil(y, m, d)
	if _, rm, rd := civilFromDays(day); rm != m || rd != d {
		return Label{}, false // day beyond the month's length
	}
	if r == Hour {
		day = day*hoursPerDay + h
	}
	return Label{Res: r, Bucket: int32(day)}, true
}

// Parse reads text as a label at resolution r. Only the canonical fixed-width
// form is accepted ("2015", "2015-03", "2015-03-01", "2015-03-01T07").
func Parse(text string, r Resolution) (Label, error) {
	l, ok := parse(text, r)
	if !ok {
		return Label{}, fmt.Errorf("%w: %q at %v", ErrBadLabel, text, r)
	}
	return l, nil
}

// ParseBytes is Parse over a byte slice (wire decoders), without building
// the string first.
func ParseBytes(text []byte, r Resolution) (Label, error) {
	l, ok := parse(text, r)
	if !ok {
		return Label{}, fmt.Errorf("%w: %q at %v", ErrBadLabel, string(text), r) // the copy keeps text on the caller's stack
	}
	return l, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(text string, r Resolution) Label {
	l, err := Parse(text, r)
	if err != nil {
		panic(err)
	}
	return l
}

// Valid reports whether the label has a defined resolution and a year the
// label text can carry (0000-9999).
func (l Label) Valid() bool {
	if !l.Res.Valid() {
		return false
	}
	y, _, _, _ := l.civil()
	return y >= 0 && y <= 9999
}

// append2 appends v, in [0, 99], as two decimal digits.
func append2(dst []byte, v int64) []byte {
	return append(dst, byte('0'+v/10), byte('0'+v%10))
}

// AppendText appends the label text to dst: "2015", "2015-03", "2015-03-01"
// or "2015-03-01T07". A label that is not Valid prints whatever time.Format
// makes of its start instant, as it always did.
func (l Label) AppendText(dst []byte) []byte {
	if !l.Res.Valid() {
		return append(dst, "Label("+l.Res.String()+")"...)
	}
	y, m, d, h := l.civil()
	if y < 0 || y > 9999 {
		return l.start().AppendFormat(dst, layouts[l.Res])
	}
	dst = append2(append2(dst, y/100), y%100)
	if l.Res >= Month {
		dst = append2(append(dst, '-'), m)
	}
	if l.Res >= Day {
		dst = append2(append(dst, '-'), d)
	}
	if l.Res >= Hour {
		dst = append2(append(dst, 'T'), h)
	}
	return dst
}

func (l Label) String() string {
	var buf [16]byte
	return string(l.AppendText(buf[:0]))
}

// Compare orders labels chronologically by their first instant, a coarser
// label before the finer ones it starts with. For Valid labels this is the
// lexicographic order of their text.
func (l Label) Compare(o Label) int {
	if a, b := l.startHour(), o.startHour(); a != b {
		if a < b {
			return -1
		}
		return 1
	}
	return int(l.Res) - int(o.Res)
}

// start is Start for a label whose resolution is known to be valid.
func (l Label) start() time.Time {
	return time.Unix(l.startHour()*secPerHour, 0).UTC()
}

// Start returns the first instant covered by the label.
func (l Label) Start() (time.Time, error) {
	if !l.Res.Valid() {
		return time.Time{}, fmt.Errorf("%w: resolution %d", ErrBadLabel, int(l.Res))
	}
	return l.start(), nil
}

// End returns the first instant after the label's span (exclusive end).
func (l Label) End() (time.Time, error) {
	if !l.Res.Valid() {
		return time.Time{}, fmt.Errorf("%w: resolution %d", ErrBadLabel, int(l.Res))
	}
	return time.Unix(l.endHour()*secPerHour, 0).UTC(), nil
}

// Contains reports whether instant t falls within the label's span.
func (l Label) Contains(t time.Time) bool {
	return l.Res.Valid() && At(t, l.Res) == l
}

// Encloses reports whether l's span fully contains o's.
func (l Label) Encloses(o Label) bool {
	return l.Res.Valid() && o.Res.Valid() &&
		l.startHour() <= o.startHour() && o.endHour() <= l.endHour()
}

// Overlaps reports whether the two spans share any instant.
func (l Label) Overlaps(o Label) bool {
	return l.Res.Valid() && o.Res.Valid() &&
		l.startHour() < o.endHour() && o.startHour() < l.endHour()
}

// Parent returns the label one resolution coarser that encloses l; ok is
// false at Year.
func (l Label) Parent() (Label, bool) {
	r, ok := l.Res.Coarser()
	if !ok || !l.Res.Valid() {
		return Label{}, false
	}
	b := int64(l.Bucket)
	switch l.Res {
	case Month:
		b = floorDiv(b, 12)
	case Day:
		y, m, _ := civilFromDays(b)
		b = y*12 + m - 1
	case Hour:
		b = floorDiv(b, hoursPerDay)
	}
	return Label{Res: r, Bucket: int32(b)}, true
}

// ChildRange returns the first of the labels one resolution finer that tile
// l and how many there are (12 months, 28-31 days, 24 hours); they are
// consecutive buckets. ok is false at Hour.
func (l Label) ChildRange() (first Label, n int, ok bool) {
	r, ok := l.Res.Finer()
	if !ok || !l.Res.Valid() {
		return Label{}, 0, false
	}
	b := int64(l.Bucket)
	switch l.Res {
	case Year:
		return Label{Res: r, Bucket: bucket32(b * 12)}, 12, true
	case Month:
		first, n = l.Days()
		return first, n, true
	}
	return Label{Res: r, Bucket: bucket32(b * hoursPerDay)}, hoursPerDay, true
}

// Days returns the first Day label the span touches and how many consecutive
// days it touches: one for a Day or an Hour, the whole month or year above.
// n is 0 when the resolution is not valid.
func (l Label) Days() (first Label, n int) {
	if !l.Res.Valid() {
		return Label{}, 0
	}
	lo := floorDiv(l.startHour(), hoursPerDay)
	hi := floorDiv(l.endHour()-1, hoursPerDay)
	return Label{Res: Day, Bucket: bucket32(lo)}, int(hi-lo) + 1
}

// Children returns the labels one resolution finer that tile l, in
// chronological order; ok is false at Hour.
func (l Label) Children() ([]Label, bool) {
	first, n, ok := l.ChildRange()
	if !ok {
		return nil, false
	}
	out := make([]Label, n)
	for i := range out {
		out[i] = Label{Res: first.Res, Bucket: first.Bucket + int32(i)}
	}
	return out, true
}

// Next returns the chronologically following label at the same resolution.
func (l Label) Next() (Label, error) {
	if !l.Res.Valid() {
		return Label{}, fmt.Errorf("%w: resolution %d", ErrBadLabel, int(l.Res))
	}
	return Label{Res: l.Res, Bucket: l.Bucket + 1}, nil
}

// Prev returns the chronologically preceding label at the same resolution.
func (l Label) Prev() (Label, error) {
	if !l.Res.Valid() {
		return Label{}, fmt.Errorf("%w: resolution %d", ErrBadLabel, int(l.Res))
	}
	return Label{Res: l.Res, Bucket: l.Bucket - 1}, nil
}

// Neighbors returns the two lateral temporal neighbors of l (previous and
// next), matching the paper's example of 2015-03 having neighbors 2015-02 and
// 2015-04.
func (l Label) Neighbors() ([]Label, error) {
	p, err := l.Prev()
	if err != nil {
		return nil, err
	}
	n, _ := l.Next()
	return []Label{p, n}, nil
}

// Range is a half-open time interval [Start, End).
type Range struct {
	Start, End time.Time
}

// NewRange builds a validated range.
func NewRange(start, end time.Time) (Range, error) {
	if !end.After(start) {
		return Range{}, fmt.Errorf("%w: range end %v not after start %v", ErrBadLabel, end, start)
	}
	return Range{Start: start.UTC(), End: end.UTC()}, nil
}

// DayRange is a convenience constructor for the paper's single-day query
// windows (e.g. 2015-02-02).
func DayRange(year int, month time.Month, day int) Range {
	s := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Range{Start: s, End: s.AddDate(0, 0, 1)}
}

// Valid reports whether the range is non-empty.
func (r Range) Valid() bool { return r.End.After(r.Start) }

// Duration returns the span of the range.
func (r Range) Duration() time.Duration { return r.End.Sub(r.Start) }

// Contains reports whether t falls inside the range.
func (r Range) Contains(t time.Time) bool {
	return !t.Before(r.Start) && t.Before(r.End)
}

// Intersects reports whether two ranges share any instant.
func (r Range) Intersects(o Range) bool {
	return r.Start.Before(o.End) && o.Start.Before(r.End)
}

// coverBuckets returns the first and last bucket at resolution res that
// intersect the range.
func (r Range) coverBuckets(res Resolution) (first, last int32, err error) {
	if !r.Valid() {
		return 0, 0, fmt.Errorf("%w: empty range", ErrBadLabel)
	}
	if !res.Valid() {
		return 0, 0, fmt.Errorf("%w: resolution %d", ErrBadLabel, int(res))
	}
	return At(r.Start, res).Bucket, At(r.End.Add(-time.Nanosecond), res).Bucket, nil
}

// Cover returns the labels at resolution res that intersect the range, in
// chronological order. It is the temporal analogue of geohash.Cover.
func (r Range) Cover(res Resolution) ([]Label, error) {
	first, last, err := r.coverBuckets(res)
	if err != nil {
		return nil, err
	}
	out := make([]Label, 0, int(last-first)+1)
	for b := first; ; b++ {
		out = append(out, Label{Res: res, Bucket: b})
		if b == last {
			return out, nil
		}
	}
}

// CoverCount returns len(Cover(res)) without materializing the labels.
func (r Range) CoverCount(res Resolution) (int, error) {
	first, last, err := r.coverBuckets(res)
	return int(last-first) + 1, err
}
