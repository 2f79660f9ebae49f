package wire

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/temporal"
)

var day = temporal.MustParse("2015-02-02", temporal.Day)

func sampleResult(nCells int, seed int64) query.Result {
	rng := rand.New(rand.NewSource(seed))
	r := query.NewResult()
	for i := 0; i < nCells; i++ {
		gh := ""
		for j := 0; j < 4; j++ {
			gh += string("0123456789bcdefghjkmnpqrstuvwxyz"[rng.Intn(32)])
		}
		s := cell.Summary{}
		for a := range s.Stats {
			for k := 0; k < 1+rng.Intn(3); k++ {
				s.Observe(cell.Attr(a), rng.NormFloat64()*20)
			}
		}
		r.Add(cell.Key{Geohash: geohash.MustPack(gh), Time: day}, s)
	}
	return r
}

func TestResultRoundTrip(t *testing.T) {
	want := sampleResult(50, 1)
	b := EncodeResult(want)
	got, err := DecodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("cells: %d != %d", got.Len(), want.Len())
	}
	for k, ws := range want.Cells {
		if gs, ok := got.Cells[k]; !ok || gs != ws {
			t.Fatalf("key %v: %+v (present %v) != %+v", k, gs, ok, ws)
		}
	}
}

func TestResultRoundTripEmpty(t *testing.T) {
	b := EncodeResult(query.NewResult())
	got, err := DecodeResult(b)
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty roundtrip: %v %d", err, got.Len())
	}
}

func TestResultSizeExact(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r := sampleResult(int(seed)*13, seed)
		if got, want := ResultSize(r), len(EncodeResult(r)); got != want {
			t.Fatalf("seed %d: ResultSize=%d, encoded=%d", seed, got, want)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	// Map iteration order must not leak into sizes; and a single cell's
	// encoding must be byte-stable (attributes in name order).
	r := query.NewResult()
	s := cell.Summary{}
	s.Observe(cell.Temperature, 1)
	s.Observe(cell.Humidity, 2)
	r.Add(cell.Key{Geohash: geohash.MustPack("9q8y"), Time: day}, s)
	b1 := EncodeResult(r)
	b2 := EncodeResult(r)
	if string(b1) != string(b2) {
		t.Error("encoding not deterministic")
	}
}

func TestKeysRoundTrip(t *testing.T) {
	keys := []cell.Key{
		cell.MustKey("9q8y", "2015-02-02", temporal.Day),
		cell.MustKey("u4pr", "2015-02", temporal.Month),
		cell.MustKey("d", "2015", temporal.Year),
		cell.MustKey("9q8y7z", "2015-02-02T10", temporal.Hour),
	}
	b := EncodeKeys(keys)
	if len(b) != KeysSize(keys) {
		t.Fatalf("KeysSize=%d, encoded=%d", KeysSize(keys), len(b))
	}
	got, err := DecodeKeys(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("decoded %d keys", len(got))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d: %v != %v", i, got[i], keys[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{magic},
		{magic, 99},            // bad version
		{magic, version, 0xFF}, // truncated count
		{0x42, version, 0x00},  // bad magic
		append(EncodeResult(sampleResult(3, 2)), 0xAA), // trailing bytes
	}
	for i, b := range cases {
		if _, err := DecodeResult(b); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
		if _, err := DecodeKeys(b); err == nil {
			t.Errorf("case %d: corrupt key list accepted", i)
		}
	}
}

func TestDecodeRejectsTruncations(t *testing.T) {
	full := EncodeResult(sampleResult(10, 3))
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := DecodeResult(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsInvalidKey(t *testing.T) {
	// Hand-craft a payload with an invalid geohash character.
	b := []byte{magic, version, 1}
	b = append(b, 4)
	b = append(b, "9qa8"...) // 'a' is not base32
	b = append(b, byte(temporal.Day))
	b = append(b, 10)
	b = append(b, "2015-02-02"...)
	b = append(b, 0) // zero attributes
	if _, err := DecodeResult(b); err == nil {
		t.Error("invalid geohash accepted")
	}
}

// TestResultGoldenBytes holds the encoding of single-cell results to the
// bytes the map-backed summaries produced (recorded at the parent commit):
// attributes by name in name order, only those observed. The byte format is
// what the transport charges for and what files hold, so the fixed schema
// must not move it.
func TestResultGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		k     cell.Key
		build func(s *cell.Summary)
		want  string
	}{
		{cell.MustKey("9q8y", "2015-02-02", temporal.Day), func(s *cell.Summary) {
			s.Observe(cell.Temperature, 21.5)
			s.Observe(cell.Temperature, -3.25)
			s.Observe(cell.Humidity, 0.5)
			s.Observe(cell.Precipitation, 0)
			s.Observe(cell.Snow, 1.75)
		}, "c501010439713879020a323031352d30322d3032040868756d696469747902000000000000e03f000000000000e03f000000000000e03f0d70726563697069746174696f6e0200000000000000000000000000000000000000000000000004736e6f7702000000000000fc3f000000000000fc3f000000000000fc3f0b74656d70657261747572650400000000004032400000000000000ac00000000000803540"},
		{cell.MustKey("u4pruydq", "2015-02-02T13", temporal.Hour), func(s *cell.Summary) {
			s.Observe(cell.Snow, 2)
		}, "c50101087534707275796471030d323031352d30322d30325431330104736e6f7702000000000000004000000000000000400000000000000040"},
		{cell.MustKey("d", "2015", temporal.Year), func(s *cell.Summary) {
			for i := 0; i < 300; i++ {
				s.Observe(cell.Humidity, float64(i)/300)
				s.Observe(cell.Temperature, float64(i)-150)
			}
		}, "c501010164000432303135020868756d6964697479d8040100000000b062400000000000000000e5174b7eb1e4ef3f0b74656d7065726174757265d8040000000000c062c00000000000c062c00000000000a06240"},
	} {
		var s cell.Summary
		tc.build(&s)
		r := query.NewResult()
		r.Add(tc.k, s)
		if got := hex.EncodeToString(EncodeResult(r)); got != tc.want {
			t.Errorf("%v encodes to\n%s\nthe format is\n%s", tc.k, got, tc.want)
		}
		want, _ := hex.DecodeString(tc.want)
		if back, err := DecodeResult(want); err != nil || back.Cells[tc.k] != s {
			t.Errorf("%v: golden bytes decode to %+v, %v", tc.k, back.Cells[tc.k], err)
		}
	}
}

// TestDecodeRejectsForeignAttributes: a name outside the cell schema, or one
// that repeats within a cell, is a corrupt payload — there is nowhere to put
// it. A zero count (which the map-backed summaries could emit) decodes as
// "not observed".
func TestDecodeRejectsForeignAttributes(t *testing.T) {
	for _, tc := range foreignAttrPayloads() {
		got, err := DecodeResult(tc.payload)
		if tc.ok {
			if err != nil || len(got.Cells) != 1 {
				t.Errorf("%s: %v, %d cells", tc.name, err, len(got.Cells))
			}
			for _, s := range got.Cells {
				if !s.Empty() {
					t.Errorf("%s: decoded to %+v, want an empty summary", tc.name, s)
				}
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

type attrPayload struct {
	name    string
	payload []byte
	ok      bool
}

// foreignAttrPayloads hand-builds one-cell results whose summaries the
// encoder would never emit.
func foreignAttrPayloads() []attrPayload {
	cellWith := func(nattrs byte, attrs ...[]byte) []byte {
		b := []byte{magic, version, 1, 4}
		b = append(b, "9q8y"...)
		b = append(append(b, byte(temporal.Day), 10), "2015-02-02"...)
		b = append(b, nattrs)
		for _, a := range attrs {
			b = append(b, a...)
		}
		return b
	}
	attr := func(name string, count int64) []byte {
		b := appendString(nil, name)
		b = binary.AppendVarint(b, count)
		return append(b, make([]byte, 24)...)
	}
	return []attrPayload{
		{"unknown name", cellWith(1, attr("wind", 1)), false},
		{"unknown name beside a known one", cellWith(2, attr("snow", 1), attr("x", 1)), false},
		{"empty name", cellWith(1, attr("", 1)), false},
		{"repeated name", cellWith(2, attr("snow", 1), attr("snow", 2)), false},
		{"more attributes than the schema", cellWith(5, attr("humidity", 1), attr("precipitation", 1), attr("snow", 1), attr("temperature", 1), attr("snow", 1)), false},
		{"negative count", cellWith(1, attr("snow", -1)), false},
		{"zero count", cellWith(1, attr("snow", 0)), true},
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := sampleResult(int(n%64), seed)
		got, err := DecodeResult(EncodeResult(r))
		if err != nil || got.Len() != r.Len() {
			return false
		}
		return got.TotalCount("temperature") == r.TotalCount("temperature")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFloatEdgeCases(t *testing.T) {
	r := query.NewResult()
	s := cell.Summary{}
	s.Stats[cell.Snow] = cell.Stat{Count: 1, Sum: math.Inf(1), Min: -math.MaxFloat64, Max: math.MaxFloat64}
	r.Add(cell.Key{Geohash: geohash.MustPack("9q8y"), Time: day}, s)
	got, err := DecodeResult(EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	st := got.Cells[cell.Key{Geohash: geohash.MustPack("9q8y"), Time: day}].Stats[cell.Snow]
	if !math.IsInf(st.Sum, 1) || st.Min != -math.MaxFloat64 {
		t.Errorf("float extremes mangled: %+v", st)
	}
}

// sampleKeys builds n pseudo-random day-resolution keys clustered under a
// few shared geohash prefixes — the shape a sorted coalesced batch has.
func sampleKeys(n int, seed int64) []cell.Key {
	rng := rand.New(rand.NewSource(seed))
	const alpha = "0123456789bcdefghjkmnpqrstuvwxyz"
	prefixes := []string{"9q8", "9q9", "u4p", "dr5"}
	keys := make([]cell.Key, 0, n)
	for i := 0; i < n; i++ {
		gh := prefixes[rng.Intn(len(prefixes))]
		for j := 0; j < 3; j++ {
			gh += string(alpha[rng.Intn(32)])
		}
		keys = append(keys, cell.Key{Geohash: geohash.MustPack(gh), Time: day})
	}
	return keys
}

func TestKeysDeltaRoundTrip(t *testing.T) {
	keys := []cell.Key{
		cell.MustKey("9q8y", "2015-02-02", temporal.Day),
		cell.MustKey("9q8y7z", "2015-02-02T10", temporal.Hour),
		cell.MustKey("9q8z", "2015-02-02", temporal.Day),
		cell.MustKey("d", "2015", temporal.Year),
		cell.MustKey("u4pr", "2015-02", temporal.Month),
	}
	for _, sorted := range []bool{false, true} {
		ks := append([]cell.Key(nil), keys...)
		if sorted {
			SortKeys(ks)
		}
		b := EncodeKeysDelta(ks)
		if len(b) != KeysDeltaSize(ks) {
			t.Fatalf("sorted=%v: KeysDeltaSize=%d, encoded=%d", sorted, KeysDeltaSize(ks), len(b))
		}
		got, err := DecodeKeysDelta(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ks) {
			t.Fatalf("decoded %d keys, want %d", len(got), len(ks))
		}
		for i := range ks {
			if got[i] != ks[i] {
				t.Fatalf("sorted=%v key %d: %v != %v", sorted, i, got[i], ks[i])
			}
		}
	}
}

func TestKeysDeltaSortedSmallerThanPlain(t *testing.T) {
	keys := sampleKeys(256, 7)
	SortKeys(keys)
	delta := len(EncodeKeysDelta(keys))
	plain := KeysSize(keys)
	if delta >= plain {
		t.Errorf("delta encoding (%dB) not smaller than plain (%dB)", delta, plain)
	}
}

func TestKeysDeltaRejectsGarbage(t *testing.T) {
	valid := EncodeKeysDelta(sampleKeys(16, 3))
	cases := [][]byte{
		nil,
		{},
		{magic},
		{magic, version},            // v1 header on the delta decoder
		{magic, versionDelta, 0xFF}, // truncated count
		{0x42, versionDelta, 0x00},  // bad magic
		// shared prefix on the FIRST key (no previous geohash to share with)
		{magic, versionDelta, 1, 3, 1, 'y', 0, byte(temporal.Day), 10, '2', '0', '1', '5', '-', '0', '2', '-', '0', '2'},
		// repeat-label flag on the first key
		{magic, versionDelta, 1, 0, 4, '9', 'q', '8', 'y', 1},
		// bad time flag
		{magic, versionDelta, 1, 0, 4, '9', 'q', '8', 'y', 7},
		append(append([]byte(nil), valid...), 0xAA), // trailing bytes
	}
	for i, b := range cases {
		if _, err := DecodeKeysDelta(b); err == nil {
			t.Errorf("case %d: corrupt delta key list accepted", i)
		}
	}
	for cut := 1; cut < len(valid); cut += 3 {
		if _, err := DecodeKeysDelta(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestKeysDeltaIntoReusesDst(t *testing.T) {
	keys := sampleKeys(32, 5)
	b := EncodeKeysDelta(keys)
	dst := make([]cell.Key, 0, 64)
	got, err := DecodeKeysDeltaInto(dst, b)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("decode-into did not reuse the destination's backing array")
	}
	// On error dst must come back unchanged.
	if back, err := DecodeKeysDeltaInto(got, []byte{0x42}); err == nil || len(back) != len(got) {
		t.Errorf("error path altered dst: len=%d err=%v", len(back), err)
	}
}

func TestBufPoolRoundTrip(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("pooled buffer not reset: len=%d", len(b))
	}
	b = append(b, 1, 2, 3)
	PutBuf(b)
	b2 := GetBuf()
	if len(b2) != 0 {
		t.Fatalf("reused buffer not truncated: len=%d", len(b2))
	}
	PutBuf(b2)
	// Oversized buffers must be dropped, never pooled.
	PutBuf(make([]byte, 0, maxPooledBuf+1))
}

// BenchmarkWireRoundTrip is the allocation benchmark of the pooled wire
// path: one encode into a pooled buffer plus one decode through the pooled
// reader per iteration. Run with -benchmem; the B/op column is the
// acceptance number for the zero-alloc work (decode output — the Result map
// and its summaries — still allocates; scratch must not).
func BenchmarkWireRoundTrip(b *testing.B) {
	r := sampleResult(500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := AppendResult(GetBuf(), r)
		got, err := DecodeResult(buf)
		if err != nil {
			b.Fatal(err)
		}
		PutBuf(buf)
		if got.Len() != r.Len() {
			b.Fatal("round trip lost cells")
		}
	}
}

// BenchmarkWireRoundTripUnpooled is the contrast run: fresh buffers every
// iteration, so the delta against BenchmarkWireRoundTrip is the pool's win.
func BenchmarkWireRoundTripUnpooled(b *testing.B) {
	r := sampleResult(500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeResult(EncodeResult(r))
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != r.Len() {
			b.Fatal("round trip lost cells")
		}
	}
}

func BenchmarkEncodeKeysPlain(b *testing.B) {
	keys := sampleKeys(256, 1)
	SortKeys(keys)
	b.ReportAllocs()
	b.SetBytes(int64(KeysSize(keys)))
	for i := 0; i < b.N; i++ {
		buf := AppendKeys(GetBuf(), keys)
		PutBuf(buf)
	}
}

func BenchmarkEncodeKeysDelta(b *testing.B) {
	keys := sampleKeys(256, 1)
	SortKeys(keys)
	b.ReportAllocs()
	b.SetBytes(int64(KeysDeltaSize(keys)))
	for i := 0; i < b.N; i++ {
		buf := AppendKeysDelta(GetBuf(), keys)
		PutBuf(buf)
	}
}

func BenchmarkDecodeKeysDeltaInto(b *testing.B) {
	keys := sampleKeys(256, 1)
	SortKeys(keys)
	buf := EncodeKeysDelta(keys)
	dst := make([]cell.Key, 0, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeKeysDeltaInto(dst[:0], buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(keys) {
			b.Fatal("short decode")
		}
	}
}

func BenchmarkEncodeResult(b *testing.B) {
	r := sampleResult(500, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeResult(r)
	}
}

func BenchmarkDecodeResult(b *testing.B) {
	buf := EncodeResult(sampleResult(500, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResult(buf); err != nil {
			b.Fatal(err)
		}
	}
}
