// Package wire provides a compact, deterministic binary encoding for STASH's
// transferable payloads: cell keys and query results. The cluster transport
// is in-process, so the codec's primary jobs are (a) pricing network payloads
// accurately — clique replication charges the exact encoded size — and
// (b) giving external consumers (files, sockets) a stable format.
//
// Layout (all integers varint/uvarint, strings length-prefixed, floats
// IEEE-754 bits little-endian):
//
//	Result  := magic u8 | version u8 | count uvarint | Cell*
//	Cell    := Key | Summary
//	Key     := geohash string | timeRes u8 | timeText string
//	Summary := nattrs uvarint | (name string | count varint |
//	           sum f64 | min f64 | max f64)*
//
// Attributes travel by name, in name order and only when observed (count > 0),
// so equal results encode to equal bytes; a decoder rejects a name outside the
// cell schema, or one that repeats.
//
// Key lists additionally have a delta form (version 2) built for coalesced
// fetch batches: geohashes are encoded as a shared-prefix length against the
// previous key plus the differing suffix, and a repeated temporal label
// costs one flag byte. On a sorted batch (SortKeys) the marginal cost of one
// more key in an already-covered region approaches two bytes:
//
//	KeysDelta := magic u8 | versionDelta u8 | count uvarint | DKey*
//	DKey      := shared uvarint | suffix string |
//	             timeFlag u8 | [timeRes u8 | timeText string]   (flag 0)
//
// Keys travel as text — the byte format predates packed keys and files may
// hold it — but no string is built on either side: the encoder prints the
// packed labels straight into the buffer and the decoder packs them straight
// from the payload bytes (geohash.PackBytes, temporal.ParseBytes).
//
// The hot encode/decode paths are allocation-frugal: encode buffers are
// pooled (GetBuf/PutBuf), attribute names resolve to schema indices without
// becoming strings, and a decoded summary lands in its map slot by value.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/temporal"
)

const (
	magic        = 0xC5
	version      = 1
	versionDelta = 2
)

// ErrCorrupt reports malformed or truncated input.
var ErrCorrupt = errors.New("wire: corrupt payload")

// maxElems caps decoded collection sizes so corrupt or hostile input cannot
// trigger giant allocations.
const maxElems = 16 << 20

// --- pooled encode buffers ---

// maxPooledBuf bounds the capacity of buffers returned to the pool, so one
// giant batch does not pin its memory forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBuf returns a pooled, zero-length encode buffer. Append into it (the
// Append* APIs), consume the bytes, then hand it back with PutBuf. The
// returned slice may have been used before; never assume zeroed capacity.
func GetBuf() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuf returns an encode buffer to the pool. The caller must not touch b
// afterwards. Oversized buffers are dropped rather than pooled.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// --- encoding ---

// AppendResult appends the encoded result to dst and returns the extended
// slice.
func AppendResult(dst []byte, r query.Result) []byte {
	dst = append(dst, magic, version)
	dst = binary.AppendUvarint(dst, uint64(len(r.Cells)))
	var lt labelText
	for k, s := range r.Cells {
		dst = lt.appendKey(dst, k)
		dst = appendSummary(dst, &s)
	}
	return dst
}

// EncodeResult encodes a result into a fresh buffer.
func EncodeResult(r query.Result) []byte {
	return AppendResult(make([]byte, 0, ResultSize(r)), r)
}

// labelText holds the encoded form of the last temporal label written. The
// keys of one payload share a handful of labels, usually one, so printing a
// label once per run of equal labels is most of the key-encoding cost saved.
type labelText struct {
	label temporal.Label
	n     int
	enc   [32]byte
}

// of returns the encoding of l: its resolution byte and length-prefixed text.
func (lt *labelText) of(l temporal.Label) []byte {
	if lt.n == 0 || l != lt.label {
		var buf [24]byte
		text := l.AppendText(buf[:0])
		enc := append(lt.enc[:0], byte(l.Res))
		enc = binary.AppendUvarint(enc, uint64(len(text)))
		lt.label, lt.n = l, len(append(enc, text...))
	}
	return lt.enc[:lt.n]
}

func (lt *labelText) appendKey(dst []byte, k cell.Key) []byte {
	dst = append(dst, byte(k.Geohash.Len())) // a one-byte uvarint: at most 15
	dst = k.Geohash.AppendText(dst)
	return append(dst, lt.of(k.Time)...)
}

// keyLen returns the encoded length of appendKey(k).
func (lt *labelText) keyLen(k cell.Key) int {
	return 1 + k.Geohash.Len() + len(lt.of(k.Time))
}

// observed counts the attributes a summary carries on the wire.
func observed(s *cell.Summary) (n int) {
	for a := range s.Stats {
		if s.Stats[a].Count > 0 {
			n++
		}
	}
	return n
}

func appendSummary(dst []byte, s *cell.Summary) []byte {
	dst = append(dst, byte(observed(s))) // a one-byte uvarint: at most cell.NumAttrs
	for a, st := range s.Stats {
		if st.Count == 0 {
			continue
		}
		dst = appendString(dst, cell.Attr(a).String())
		dst = binary.AppendVarint(dst, st.Count)
		dst = appendFloat(dst, st.Sum)
		dst = appendFloat(dst, st.Min)
		dst = appendFloat(dst, st.Max)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// ResultSize returns the exact encoded length of a result without encoding
// it — what the transport charges as payload bytes.
func ResultSize(r query.Result) int {
	n := 2 + uvarintLen(uint64(len(r.Cells)))
	var lt labelText
	for k, s := range r.Cells {
		n += lt.keyLen(k) + 1
		for a, st := range s.Stats {
			if st.Count > 0 {
				n += stringLen(cell.Attr(a).String()) + varintLen(st.Count) + 24
			}
		}
	}
	return n
}

// --- decoding ---

// reader is the decode cursor.
type reader struct {
	b   []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.pos += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.pos += n
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.b) {
		return nil, ErrCorrupt
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

// lenBytes reads a length-prefixed run of bytes; the result aliases the
// payload.
func (r *reader) lenBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil || n > maxElems {
		return nil, ErrCorrupt
	}
	return r.bytes(int(n))
}

// label reads a temporal label: its resolution byte and length-prefixed text.
func (r *reader) label() (temporal.Label, error) {
	res, err := r.byte1()
	if err != nil {
		return temporal.Label{}, err
	}
	text, err := r.lenBytes()
	if err != nil {
		return temporal.Label{}, err
	}
	l, err := temporal.ParseBytes(text, temporal.Resolution(res))
	if err != nil {
		return temporal.Label{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return l, nil
}

func (r *reader) float() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func (r *reader) byte1() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// DecodeResult decodes an encoded result. Cell keys and attribute names are
// validated, so a decoded result is structurally safe to insert into a graph.
// A decode allocates the result map and nothing per cell.
func DecodeResult(b []byte) (query.Result, error) {
	r := &reader{b: b}
	m, err := r.byte1()
	if err != nil || m != magic {
		return query.Result{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	v, err := r.byte1()
	if err != nil || v != version {
		return query.Result{}, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	count, err := r.uvarint()
	if err != nil || count > maxElems {
		return query.Result{}, ErrCorrupt
	}
	out := query.NewResultCap(capHint(count))
	for i := uint64(0); i < count; i++ {
		k, err := decodeKey(r)
		if err != nil {
			return query.Result{}, err
		}
		s, err := decodeSummary(r)
		if err != nil {
			return query.Result{}, err
		}
		out.Add(k, s)
	}
	if r.pos != len(b) {
		return query.Result{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-r.pos)
	}
	return out, nil
}

func decodeKey(r *reader) (cell.Key, error) {
	gh, err := r.lenBytes()
	if err != nil {
		return cell.Key{}, err
	}
	h, err := geohash.PackBytes(gh)
	if err != nil {
		return cell.Key{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	label, err := r.label()
	if err != nil {
		return cell.Key{}, err
	}
	k, err := cell.KeyOf(h, label)
	if err != nil {
		return cell.Key{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return k, nil
}

func decodeSummary(r *reader) (s cell.Summary, err error) {
	n, err := r.uvarint()
	if err != nil || n > cell.NumAttrs {
		return cell.Summary{}, fmt.Errorf("%w: %d attributes in a schema of %d", ErrCorrupt, n, cell.NumAttrs)
	}
	var seen [cell.NumAttrs]bool
	for i := uint64(0); i < n; i++ {
		name, err := r.lenBytes()
		if err != nil {
			return cell.Summary{}, err
		}
		a, ok := cell.AttrByName(string(name))
		if !ok || seen[a] {
			return cell.Summary{}, fmt.Errorf("%w: unknown or repeated attribute %q", ErrCorrupt, name)
		}
		seen[a] = true
		st := &s.Stats[a]
		if st.Count, err = r.varint(); err != nil {
			return cell.Summary{}, err
		}
		if st.Sum, err = r.float(); err != nil {
			return cell.Summary{}, err
		}
		if st.Min, err = r.float(); err != nil {
			return cell.Summary{}, err
		}
		if st.Max, err = r.float(); err != nil {
			return cell.Summary{}, err
		}
		switch {
		case st.Count < 0:
			return cell.Summary{}, fmt.Errorf("%w: negative count", ErrCorrupt)
		case st.Count == 0:
			// The map-backed summaries this format predates could carry a
			// zero-count entry; it means "not observed".
			*st = cell.Stat{}
		}
	}
	return s, nil
}

// --- key lists ---

// AppendKeys appends the plain (version 1) encoding of a key list to dst
// and returns the extended slice; pair with GetBuf/PutBuf on hot paths.
func AppendKeys(dst []byte, keys []cell.Key) []byte {
	dst = append(dst, magic, version)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	var lt labelText
	for _, k := range keys {
		dst = lt.appendKey(dst, k)
	}
	return dst
}

// EncodeKeys encodes a key list (a fetch request payload).
func EncodeKeys(keys []cell.Key) []byte {
	return AppendKeys(make([]byte, 0, KeysSize(keys)), keys)
}

// DecodeKeys decodes a key list.
func DecodeKeys(b []byte) ([]cell.Key, error) {
	return DecodeKeysInto(nil, b)
}

// DecodeKeysInto decodes a key list, appending into dst so callers on a hot
// path can reuse one slice across requests. On error the returned slice is
// dst unchanged.
func DecodeKeysInto(dst []cell.Key, b []byte) ([]cell.Key, error) {
	r := &reader{b: b}
	m, err := r.byte1()
	if err != nil || m != magic {
		return dst, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	v, err := r.byte1()
	if err != nil || v != version {
		return dst, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	count, err := r.uvarint()
	if err != nil || count > maxElems {
		return dst, ErrCorrupt
	}
	out := dst
	if need := capHint(count); cap(out)-len(out) < need {
		grown := make([]cell.Key, len(out), len(out)+need)
		copy(grown, out)
		out = grown
	}
	for i := uint64(0); i < count; i++ {
		k, err := decodeKey(r)
		if err != nil {
			return dst, err
		}
		out = append(out, k)
	}
	if r.pos != len(b) {
		return dst, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return out, nil
}

// KeysSize returns the exact encoded length of a key list.
func KeysSize(keys []cell.Key) int {
	n := 2 + uvarintLen(uint64(len(keys)))
	var lt labelText
	for _, k := range keys {
		n += lt.keyLen(k)
	}
	return n
}

// --- prefix-delta key lists (version 2) ---

// SortKeys orders keys by (geohash text, time resolution, time bucket): the
// order that maximizes shared geohash prefixes and temporal-label runs for
// the delta encoding, and makes batched encodings deterministic. Packed
// geohashes compare as their text does.
func SortKeys(keys []cell.Key) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Geohash != b.Geohash {
			return a.Geohash < b.Geohash
		}
		if a.Time.Res != b.Time.Res {
			return a.Time.Res < b.Time.Res
		}
		return a.Time.Bucket < b.Time.Bucket
	})
}

// AppendKeysDelta appends the delta encoding of a key list to dst and
// returns the extended slice. Keys are encoded in the given order; call
// SortKeys first for the tightest (and deterministic) encoding. Decoding
// preserves the order, so any order round-trips.
func AppendKeysDelta(dst []byte, keys []cell.Key) []byte {
	dst = append(dst, magic, versionDelta)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	var prev cell.Key
	var lt labelText
	for i, k := range keys {
		// The zero prev shares nothing, so the first key goes out whole.
		shared := prev.Geohash.CommonPrefixLen(k.Geohash)
		var buf [16]byte
		dst = append(dst, byte(shared), byte(k.Geohash.Len()-shared)) // one-byte uvarints
		dst = append(dst, k.Geohash.AppendText(buf[:0])[shared:]...)
		if i > 0 && k.Time == prev.Time {
			dst = append(dst, 1)
		} else {
			dst = append(append(dst, 0), lt.of(k.Time)...)
		}
		prev = k
	}
	return dst
}

// EncodeKeysDelta delta-encodes a key list into a fresh buffer.
func EncodeKeysDelta(keys []cell.Key) []byte {
	return AppendKeysDelta(make([]byte, 0, KeysDeltaSize(keys)), keys)
}

// DecodeKeysDelta decodes a delta-encoded key list.
func DecodeKeysDelta(b []byte) ([]cell.Key, error) {
	return DecodeKeysDeltaInto(nil, b)
}

// DecodeKeysDeltaInto decodes a delta-encoded key list, appending into dst.
// Every reconstructed key is validated (geohash alphabet and precision,
// temporal label), so corrupt prefixes and suffixes are rejected rather than
// propagated. On error the returned slice is dst unchanged.
func DecodeKeysDeltaInto(dst []cell.Key, b []byte) ([]cell.Key, error) {
	r := &reader{b: b}
	m, err := r.byte1()
	if err != nil || m != magic {
		return dst, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	v, err := r.byte1()
	if err != nil || v != versionDelta {
		return dst, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	count, err := r.uvarint()
	if err != nil || count > maxElems {
		return dst, ErrCorrupt
	}
	out := dst
	if need := capHint(count); cap(out)-len(out) < need {
		grown := make([]cell.Key, len(out), len(out)+need)
		copy(grown, out)
		out = grown
	}
	var prev cell.Key
	for i := uint64(0); i < count; i++ {
		shared, err := r.uvarint()
		if err != nil || shared > uint64(prev.Geohash.Len()) {
			return dst, fmt.Errorf("%w: shared prefix %d exceeds previous geohash", ErrCorrupt, shared)
		}
		suffix, err := r.lenBytes()
		if err != nil {
			return dst, err
		}
		var buf [2 * geohash.MaxPrecision]byte
		text := prev.Geohash.Prefix(int(shared)).AppendText(buf[:0])
		if len(suffix) > geohash.MaxPrecision {
			return dst, fmt.Errorf("%w: geohash suffix of %d bytes", ErrCorrupt, len(suffix))
		}
		h, err := geohash.PackBytes(append(text, suffix...))
		if err != nil {
			return dst, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		flag, err := r.byte1()
		if err != nil {
			return dst, err
		}
		label := prev.Time
		switch flag {
		case 1:
			if i == 0 {
				return dst, fmt.Errorf("%w: repeat-label flag on first key", ErrCorrupt)
			}
		case 0:
			if label, err = r.label(); err != nil {
				return dst, err
			}
		default:
			return dst, fmt.Errorf("%w: bad time flag %d", ErrCorrupt, flag)
		}
		k, err := cell.KeyOf(h, label)
		if err != nil {
			return dst, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		out = append(out, k)
		prev = k
	}
	if r.pos != len(b) {
		return dst, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return out, nil
}

// KeysDeltaSize returns the exact delta-encoded length of a key list in the
// given order — what a coalesced batch request costs on the wire.
func KeysDeltaSize(keys []cell.Key) int {
	n := 2 + uvarintLen(uint64(len(keys)))
	var prev cell.Key
	var lt labelText
	for i, k := range keys {
		n += 2 + k.Geohash.Len() - prev.Geohash.CommonPrefixLen(k.Geohash) + 1
		if !(i > 0 && k.Time == prev.Time) {
			n += len(lt.of(k.Time))
		}
		prev = k
	}
	return n
}

// capHint clamps an untrusted element count to a sane preallocation size.
func capHint(count uint64) int {
	return min(count, 4096)
}

// --- size helpers ---

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}

func min(a uint64, b int) int {
	if a < uint64(b) {
		return int(a)
	}
	return b
}
