package export

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"stash/internal/cell"
	"stash/internal/query"
	"stash/internal/temporal"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenResult is a hand-crafted fixture exercising every formatting branch:
// multiple cells in non-sorted insertion order (exports must sort), cells
// missing an attribute another cell has (CSV zero-fills the union header, and
// the mean of nothing renders 0, not NaN), negative and fractional values.
// The fixture used to carry an explicit zero-count precipitation entry too;
// in the fixed schema a zero count IS absence, so that entry cannot exist and
// the golden files no longer print it.
func goldenResult() query.Result {
	r := query.NewResult()

	s1 := cell.Summary{}
	s1.Stats[cell.Temperature] = cell.Stat{Count: 3, Sum: 45, Min: 10, Max: 20.5}
	s1.Stats[cell.Humidity] = cell.Stat{Count: 2, Sum: 1.5, Min: 0.25, Max: 1.25}
	r.Add(cell.MustKey("9v6m", "2015-02-03", temporal.Day), s1)

	s2 := cell.Summary{}
	s2.Stats[cell.Temperature] = cell.Stat{Count: 1, Sum: -7.5, Min: -7.5, Max: -7.5}
	r.Add(cell.MustKey("9v6k", "2015-02-02", temporal.Day), s2)

	// Same geohash as s2, later label: exercises the (geohash, time)
	// secondary sort key.
	s3 := cell.Summary{}
	s3.Stats[cell.Temperature] = cell.Stat{Count: 4, Sum: 100, Min: 20, Max: 30}
	r.Add(cell.MustKey("9v6k", "2015-02-03", temporal.Day), s3)

	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/export -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(if the change is intentional, re-run with -update)",
			name, got, want)
	}
}

// TestGeoJSONGolden pins the exact GeoJSON byte output — property names,
// ring orientation, number formatting, feature order — against a checked-in
// golden file, so any wire-format drift is a conscious, reviewed change.
func TestGeoJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGeoJSON(&buf, goldenResult()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.geojson", buf.Bytes())
}

// TestCSVGolden pins the exact CSV byte output: header union across cells,
// sorted attribute columns, fixed-precision floats, row order.
func TestCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, goldenResult()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.csv", buf.Bytes())
}

// TestGoldenDeterministic guards the property the golden files rely on:
// repeated exports of the same result are byte-identical (no map-order
// leakage).
func TestGoldenDeterministic(t *testing.T) {
	r := goldenResult()
	for _, w := range []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"geojson", func(b *bytes.Buffer) error { return WriteGeoJSON(b, r) }},
		{"csv", func(b *bytes.Buffer) error { return WriteCSV(b, r) }},
	} {
		var a, b bytes.Buffer
		if err := w.write(&a); err != nil {
			t.Fatal(err)
		}
		if err := w.write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s export not deterministic across runs", w.name)
		}
	}
}
