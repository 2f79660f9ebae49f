// Dashboard: the front-end role from the paper's architecture (§VI-A) — a
// lightweight client that turns "user interactions" into HTTP/JSON queries
// against a stashd server and renders the responses, here as a terminal
// heatmap of mean surface temperature.
//
// Run the server first, then this client:
//
//	go run ./cmd/stashd -addr :8080 &
//	go run ./examples/dashboard -server http://localhost:8080
//
// Without -server, the example starts an in-process cluster and serves
// itself, so it also works standalone.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"stash"
)

type queryRequest struct {
	MinLat      float64 `json:"minLat"`
	MaxLat      float64 `json:"maxLat"`
	MinLon      float64 `json:"minLon"`
	MaxLon      float64 `json:"maxLon"`
	Start       string  `json:"start"`
	End         string  `json:"end"`
	SpatialRes  int     `json:"spatialRes"`
	TemporalRes string  `json:"temporalRes"`
}

type queryResponse struct {
	Cells []struct {
		Geohash string  `json:"geohash"`
		Lat     float64 `json:"lat"`
		Lon     float64 `json:"lon"`
		Stats   map[string]struct {
			Count int64   `json:"count"`
			Mean  float64 `json:"mean"`
		} `json:"stats"`
	} `json:"cells"`
	LatencyMS float64 `json:"latencyMs"`
}

func main() {
	server := flag.String("server", "", "stashd base URL (empty: self-contained in-process server)")
	flag.Parse()

	base := *server
	if base == "" {
		base = startSelfContained()
	}

	// The "viewport": a wide band over North America. Drill from coarse to
	// fine like a user zooming in.
	req := queryRequest{
		MinLat: 30, MaxLat: 48, MinLon: -110, MaxLon: -80,
		Start: "2015-02-02T00:00:00Z", End: "2015-02-03T00:00:00Z",
		SpatialRes: 3, TemporalRes: "Day",
	}

	for _, res := range []int{2, 3} {
		req.SpatialRes = res
		resp, err := post(base, req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== viewport at geohash precision %d: %d cells, %.2f ms server latency ===\n",
			res, len(resp.Cells), resp.LatencyMS)
		renderHeatmap(req, resp)
	}
}

func post(base string, req queryRequest) (queryResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return queryResponse{}, err
	}
	httpResp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return queryResponse{}, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return queryResponse{}, fmt.Errorf("server returned %s", httpResp.Status)
	}
	var out queryResponse
	err = json.NewDecoder(httpResp.Body).Decode(&out)
	return out, err
}

// renderHeatmap draws mean temperature as ASCII shades on a fixed grid:
// each character maps to the aggregated cell containing its coordinates.
func renderHeatmap(req queryRequest, resp queryResponse) {
	const rows, cols = 12, 48
	means := make(map[string]float64, len(resp.Cells))
	for _, c := range resp.Cells {
		if st, ok := c.Stats["temperature"]; ok && st.Count > 0 {
			means[c.Geohash] = st.Mean
		}
	}
	shades := []rune(" .:-=+*#%@")
	for r := 0; r < rows; r++ {
		line := make([]rune, cols)
		lat := req.MaxLat - (float64(r)+0.5)/rows*(req.MaxLat-req.MinLat)
		for c := 0; c < cols; c++ {
			lon := req.MinLon + (float64(c)+0.5)/cols*(req.MaxLon-req.MinLon)
			gh := stash.EncodeGeohash(lat, lon, req.SpatialRes)
			mean, ok := means[gh]
			if !ok {
				line[c] = ' '
				continue
			}
			// Map -20..+30 °C onto the shade ramp.
			idx := int((mean + 20) / 50 * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			line[c] = shades[idx]
		}
		fmt.Println(string(line))
	}
	fmt.Println("(shade ramp: cold ' ' … '@' warm, mean surface temperature)")
}

// startSelfContained boots a cluster and an in-process HTTP server speaking
// the same protocol as cmd/stashd, returning its base URL.
func startSelfContained() string {
	cfg := stash.DefaultConfig()
	cfg.Nodes = 8
	cfg.Sleeper = stash.NewRealSleeper()
	sys, err := stash.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys.Start()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req queryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		start, err := time.Parse(time.RFC3339, req.Start)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		end, err := time.Parse(time.RFC3339, req.End)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tr, err := stash.NewTimeRange(start, end)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q := stash.Query{
			Box:         stash.Box{MinLat: req.MinLat, MaxLat: req.MaxLat, MinLon: req.MinLon, MaxLon: req.MaxLon},
			Time:        tr,
			SpatialRes:  req.SpatialRes,
			TemporalRes: stash.Day,
		}
		begin := time.Now()
		res, err := sys.Client().Query(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var out queryResponse
		out.LatencyMS = float64(time.Since(begin).Microseconds()) / 1000
		for key, sum := range res.Cells {
			lat, lon := key.Box().Center()
			cellOut := struct {
				Geohash string  `json:"geohash"`
				Lat     float64 `json:"lat"`
				Lon     float64 `json:"lon"`
				Stats   map[string]struct {
					Count int64   `json:"count"`
					Mean  float64 `json:"mean"`
				} `json:"stats"`
			}{Geohash: key.Geohash.String(), Lat: lat, Lon: lon, Stats: map[string]struct {
				Count int64   `json:"count"`
				Mean  float64 `json:"mean"`
			}{}}
			if st, ok := sum.Stat("temperature"); ok {
				cellOut.Stats["temperature"] = struct {
					Count int64   `json:"count"`
					Mean  float64 `json:"mean"`
				}{Count: st.Count, Mean: st.Mean()}
			}
			out.Cells = append(out.Cells, cellOut)
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(out); err != nil {
			log.Printf("dashboard: encode: %v", err)
		}
	})
	srv := httptest.NewServer(mux)
	return srv.URL
}
