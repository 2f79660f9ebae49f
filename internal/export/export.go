// Package export renders query results in the interchange formats a
// visualization front-end consumes: GeoJSON FeatureCollections (map panels)
// and CSV (tables, spreadsheets). Cells are emitted as polygon features of
// their geohash bounds with the aggregate statistics as properties — the
// shape the paper's Grafana WorldMap panel and similar tools ingest.
package export

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"

	"stash/internal/cell"
	"stash/internal/query"
)

// sortedKeys returns the result's keys in deterministic order (geohash,
// then time), so exports are stable across runs.
func sortedKeys(r query.Result) []cell.Key {
	keys := make([]cell.Key, 0, len(r.Cells))
	for k := range r.Cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

// --- GeoJSON ---

type geoJSON struct {
	Type     string    `json:"type"`
	Features []feature `json:"features"`
}

type feature struct {
	Type       string         `json:"type"`
	Geometry   geometry       `json:"geometry"`
	Properties map[string]any `json:"properties"`
}

type geometry struct {
	Type        string         `json:"type"`
	Coordinates [][][2]float64 `json:"coordinates"`
}

// WriteGeoJSON renders the result as a GeoJSON FeatureCollection: one
// Polygon per cell (its geohash bounds), with properties "geohash", "time",
// and per attribute "<attr>_count|mean|min|max".
func WriteGeoJSON(w io.Writer, r query.Result) error {
	fc := geoJSON{Type: "FeatureCollection", Features: []feature{}}
	for _, k := range sortedKeys(r) {
		box := k.Box()
		props := map[string]any{
			"geohash": k.Geohash.String(),
			"time":    k.Time.String(),
		}
		for a, st := range r.Cells[k].Stats {
			if st.Count == 0 {
				continue
			}
			attr := cell.Attr(a).String()
			props[attr+"_count"] = st.Count
			props[attr+"_min"] = st.Min
			props[attr+"_max"] = st.Max
			mean := st.Mean()
			if math.IsNaN(mean) {
				mean = 0
			}
			props[attr+"_mean"] = mean
		}
		// GeoJSON rings are [lon, lat], counter-clockwise, closed.
		ring := [][2]float64{
			{box.MinLon, box.MinLat},
			{box.MaxLon, box.MinLat},
			{box.MaxLon, box.MaxLat},
			{box.MinLon, box.MaxLat},
			{box.MinLon, box.MinLat},
		}
		fc.Features = append(fc.Features, feature{
			Type:       "Feature",
			Geometry:   geometry{Type: "Polygon", Coordinates: [][][2]float64{ring}},
			Properties: props,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(fc)
}

// --- CSV ---

// WriteCSV renders the result as CSV with one row per cell: geohash, time,
// cell center, then count/mean/min/max per attribute (union of attributes
// across cells, sorted).
func WriteCSV(w io.Writer, r query.Result) error {
	var observed [cell.NumAttrs]bool
	for _, s := range r.Cells {
		for a, st := range s.Stats {
			observed[a] = observed[a] || st.Count > 0
		}
	}
	var attrs []cell.Attr // schema order is name order
	for a, seen := range observed {
		if seen {
			attrs = append(attrs, cell.Attr(a))
		}
	}

	cw := csv.NewWriter(w)
	header := []string{"geohash", "time", "lat", "lon"}
	for _, a := range attrs {
		name := a.String()
		header = append(header, name+"_count", name+"_mean", name+"_min", name+"_max")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, k := range sortedKeys(r) {
		lat, lon := k.Box().Center()
		row := []string{
			k.Geohash.String(), k.Time.String(),
			strconv.FormatFloat(lat, 'f', 6, 64),
			strconv.FormatFloat(lon, 'f', 6, 64),
		}
		s := r.Cells[k]
		for _, a := range attrs {
			st := s.Stats[a]
			mean := st.Mean()
			if math.IsNaN(mean) {
				mean = 0
			}
			row = append(row,
				strconv.FormatInt(st.Count, 10),
				strconv.FormatFloat(mean, 'f', 4, 64),
				strconv.FormatFloat(st.Min, 'f', 4, 64),
				strconv.FormatFloat(st.Max, 'f', 4, 64),
			)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
