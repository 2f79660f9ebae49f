package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"stash/internal/cell"
	"stash/internal/query"
	"stash/internal/temporal"
)

func sampleResult() query.Result {
	r := query.NewResult()
	s1 := cell.Summary{}
	s1.Observe(cell.Temperature, 10)
	s1.Observe(cell.Temperature, 20)
	s1.Observe(cell.Humidity, 0.5)
	r.Add(cell.MustKey("9q8y", "2015-02-02", temporal.Day), s1)

	s2 := cell.Summary{}
	s2.Observe(cell.Temperature, -5)
	r.Add(cell.MustKey("9q8z", "2015-02-02", temporal.Day), s2)
	return r
}

func TestWriteGeoJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGeoJSON(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	var fc struct {
		Type     string `json:"type"`
		Features []struct {
			Type     string `json:"type"`
			Geometry struct {
				Type        string         `json:"type"`
				Coordinates [][][2]float64 `json:"coordinates"`
			} `json:"geometry"`
			Properties map[string]any `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(buf.Bytes(), &fc); err != nil {
		t.Fatal(err)
	}
	if fc.Type != "FeatureCollection" || len(fc.Features) != 2 {
		t.Fatalf("collection: %s with %d features", fc.Type, len(fc.Features))
	}
	f := fc.Features[0]
	if f.Geometry.Type != "Polygon" {
		t.Errorf("geometry type %q", f.Geometry.Type)
	}
	ring := f.Geometry.Coordinates[0]
	if len(ring) != 5 || ring[0] != ring[4] {
		t.Errorf("polygon ring not closed: %v", ring)
	}
	if f.Properties["geohash"] != "9q8y" {
		t.Errorf("first feature geohash %v (order must be deterministic)", f.Properties["geohash"])
	}
	if f.Properties["temperature_mean"].(float64) != 15 {
		t.Errorf("temperature_mean = %v", f.Properties["temperature_mean"])
	}
	if f.Properties["time"] != "2015-02-02" {
		t.Errorf("time property = %v", f.Properties["time"])
	}
}

func TestWriteGeoJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGeoJSON(&buf, query.NewResult()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"features":[]`) {
		t.Errorf("empty collection should have empty features array: %s", buf.String())
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(rows))
	}
	header := strings.Join(rows[0], ",")
	// Attribute columns sorted: humidity before temperature.
	if !strings.Contains(header, "humidity_count") || !strings.Contains(header, "temperature_mean") {
		t.Errorf("header missing attribute columns: %s", header)
	}
	if strings.Index(header, "humidity") > strings.Index(header, "temperature") {
		t.Error("attribute columns not sorted")
	}
	if rows[1][0] != "9q8y" || rows[2][0] != "9q8z" {
		t.Errorf("rows not in deterministic order: %v %v", rows[1][0], rows[2][0])
	}
	// The humidity columns of the second cell (no humidity data) are zeros.
	hIdx := indexOf(rows[0], "humidity_count")
	if rows[2][hIdx] != "0" {
		t.Errorf("missing attribute should export count 0, got %q", rows[2][hIdx])
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, query.NewResult()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("empty result should export header only, got %d rows", len(rows))
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	var a, b bytes.Buffer
	r := sampleResult()
	if err := WriteGeoJSON(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := WriteGeoJSON(&b, r); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("GeoJSON export not deterministic")
	}
}

func indexOf(row []string, col string) int {
	for i, c := range row {
		if c == col {
			return i
		}
	}
	return -1
}
