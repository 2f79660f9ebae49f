package wire

import (
	"bytes"
	"testing"

	"stash/internal/cell"
	"stash/internal/query"
	"stash/internal/temporal"
)

// FuzzKeysDeltaRoundTrip feeds arbitrary bytes to the prefix-delta key
// decoder. The invariants:
//
//  1. the decoder never panics and never reads past the input (enforced by
//     the reader's bounds checks);
//  2. whatever it accepts must re-encode and re-decode to the identical key
//     list — decode∘encode is the identity on the decoder's accepted set;
//  3. every accepted key is structurally valid (cell.NewKey passed during
//     decoding), so corrupt inputs cannot smuggle malformed geohashes or
//     temporal labels into the cluster.
//
// The seed corpus holds valid encodings (shared prefixes, repeated labels,
// mixed resolutions, the empty list) so coverage starts inside the accepted
// set, plus near-miss corruptions of each header field.
func FuzzKeysDeltaRoundTrip(f *testing.F) {
	seedKeys := [][]cell.Key{
		{},
		{cell.MustKey("9q8y", "2015-02-02", temporal.Day)},
		{
			cell.MustKey("9q8y", "2015-02-02", temporal.Day),
			cell.MustKey("9q8y7z", "2015-02-02T10", temporal.Hour),
			cell.MustKey("9q8z", "2015-02-02", temporal.Day),
			cell.MustKey("d", "2015", temporal.Year),
			cell.MustKey("u4pr", "2015-02", temporal.Month),
		},
		sampleKeys(32, 11),
	}
	for _, ks := range seedKeys {
		sorted := append([]cell.Key(nil), ks...)
		SortKeys(sorted)
		f.Add(EncodeKeysDelta(ks))
		f.Add(EncodeKeysDelta(sorted))
	}
	// Near-miss corruptions: bad version, truncated count, over-shared prefix.
	f.Add([]byte{magic, version, 0})
	f.Add([]byte{magic, versionDelta, 0xFF})
	f.Add([]byte{magic, versionDelta, 1, 3, 1, 'y', 0, byte(temporal.Day), 10, '2', '0', '1', '5', '-', '0', '2', '-', '0', '2'})

	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := DecodeKeysDelta(data)
		if err != nil {
			return // rejected: fine, as long as we didn't panic
		}
		for i, k := range keys {
			if _, err := cell.KeyOf(k.Geohash, k.Time); err != nil {
				t.Fatalf("decoder accepted invalid key %d (%v): %v", i, k, err)
			}
		}
		re := EncodeKeysDelta(keys)
		back, err := DecodeKeysDelta(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted input does not decode: %v", err)
		}
		if len(back) != len(keys) {
			t.Fatalf("round trip changed key count: %d -> %d", len(keys), len(back))
		}
		for i := range keys {
			if back[i] != keys[i] {
				t.Fatalf("round trip changed key %d: %v -> %v", i, keys[i], back[i])
			}
		}
		// Canonical inputs (what AppendKeysDelta itself emits for these keys
		// in this order) must be byte-stable: encode is deterministic.
		if again := EncodeKeysDelta(back); !bytes.Equal(re, again) {
			t.Fatal("re-encoding is not deterministic")
		}
	})
}

// FuzzKeyTextRoundTrip holds the packed key to its text at both edges. For
// arbitrary (geohash text, label text, resolution):
//
//  1. text -> Key -> text: whatever NewKey and Parse accept prints back as
//     exactly the text that went in, so the integer form loses nothing;
//  2. Key -> wire -> Key: every key codec returns the identical key;
//  3. the plain encoding is still the text layout the format documents
//     (length-prefixed geohash, resolution byte, length-prefixed label), byte
//     for byte.
//
// The seeds cover every resolution, both ends of the label format, a leap
// day, the longest and shortest geohashes, and near-miss text each parser
// must refuse.
func FuzzKeyTextRoundTrip(f *testing.F) {
	for _, s := range []struct {
		gh, label string
		res       uint8
	}{
		{"9q8y", "2015-02-02", 2}, {"9", "2015", 0}, {"zzzzzzzz", "9999-12-31T23", 3},
		{"00000000", "0000-01", 1}, {"u4pruydq", "2016-02-29", 2}, {"d", "1970-01-01T00", 3},
		{"9q8y7zzzz", "2015-02-02", 2}, // one past the max cell precision
		{"9Q", "2015-02-02", 2}, {"", "2015", 0}, {"9q", "2015-02-30", 2}, {"9q", "2015-02-02T5", 3},
		{"9q", "2015-2-2", 2}, {"9q", "10000", 0}, {"9q", "2015-02", 2}, {"ai", "2015", 0}, {"9q", "2015", 7},
	} {
		f.Add(s.gh, s.label, s.res)
	}
	f.Fuzz(func(t *testing.T, gh, label string, resRaw uint8) {
		res := temporal.Resolution(resRaw % 8) // half the values are no resolution at all
		l, err := temporal.Parse(label, res)
		if err != nil {
			return
		}
		k, err := cell.NewKey(gh, l)
		if err != nil {
			return
		}
		if got := k.String(); got != gh+"@"+label {
			t.Fatalf("text %q@%q came back as %q", gh, label, got)
		}
		if k.SpatialRes() != len(gh) || k.TemporalRes() != res {
			t.Fatalf("%v: resolutions (%d, %v), want (%d, %v)", k, k.SpatialRes(), k.TemporalRes(), len(gh), res)
		}

		keys := []cell.Key{k, k}
		plain := EncodeKeys(keys[:1])
		want := append([]byte{magic, version, 1, byte(len(gh))}, gh...)
		want = append(append(want, byte(res), byte(len(label))), label...)
		if !bytes.Equal(plain, want) {
			t.Fatalf("plain encoding of %v is %x, the text layout is %x", k, plain, want)
		}
		if back, err := DecodeKeys(plain); err != nil || len(back) != 1 || back[0] != k {
			t.Fatalf("plain round trip of %v: %v, %v", k, back, err)
		}
		if back, err := DecodeKeysDelta(EncodeKeysDelta(keys)); err != nil || len(back) != 2 || back[0] != k || back[1] != k {
			t.Fatalf("delta round trip of %v: %v, %v", k, back, err)
		}
		s := cell.Summary{}
		s.Observe(cell.Snow, 1)
		r := query.NewResult()
		r.Add(k, s)
		enc := EncodeResult(r)
		if len(enc) != ResultSize(r) {
			t.Fatalf("ResultSize = %d, encoding is %d bytes", ResultSize(r), len(enc))
		}
		back, err := DecodeResult(enc)
		if err != nil || back.Len() != 1 {
			t.Fatalf("result round trip of %v: %v", k, err)
		}
		if _, ok := back.Cells[k]; !ok {
			t.Fatalf("result round trip lost %v: %v", k, back.Cells)
		}
	})
}

// FuzzResultDecode feeds arbitrary bytes to the result decoder. It must never
// panic; whatever it accepts holds only valid keys, and re-encodes to a
// payload of exactly ResultSize bytes that decodes to the same cells. The
// seeds are valid results plus the summaries no encoder emits: unknown,
// empty, repeated and surplus attribute names, negative and zero counts.
func FuzzResultDecode(f *testing.F) {
	f.Add(EncodeResult(query.NewResult()))
	f.Add(EncodeResult(sampleResult(1, 1)))
	f.Add(EncodeResult(sampleResult(9, 2)))
	for _, p := range foreignAttrPayloads() {
		f.Add(p.payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		for k := range res.Cells {
			if _, err := cell.KeyOf(k.Geohash, k.Time); err != nil {
				t.Fatalf("decoder accepted invalid key %v: %v", k, err)
			}
		}
		re := EncodeResult(res)
		if len(re) != ResultSize(res) {
			t.Fatalf("ResultSize = %d, encoding is %d bytes", ResultSize(res), len(re))
		}
		back, err := DecodeResult(re)
		if err != nil || len(back.Cells) != len(res.Cells) {
			t.Fatalf("re-encoding of accepted input does not decode: %v", err)
		}
		for k, s := range res.Cells {
			// Compare encodings, not values: a NaN stat is not == itself.
			if got := back.Cells[k]; !bytes.Equal(appendSummary(nil, &got), appendSummary(nil, &s)) {
				t.Fatalf("round trip changed %v: %+v -> %+v", k, s, got)
			}
		}
	})
}
