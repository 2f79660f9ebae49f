// Command stashd runs a STASH cluster in-process and serves aggregation
// queries over HTTP/JSON — the role the paper's Grafana WorldMap front-end
// talks to (§VI-A). Any client that can POST JSON can drive it; the
// examples/dashboard program is one.
//
// Endpoints:
//
//	POST /query    evaluate an aggregation query (JSON body, see QueryRequest).
//	               ?timeout=250ms bounds the whole query; a degraded partial
//	               answer returns 206 with a coverage block, a query that
//	               produced nothing at all before its deadline returns 504.
//	               ?trace=1 records the query as a span tree and embeds it in
//	               the JSON response; ?trace=chrome returns the spans as
//	               Chrome trace-event JSON loadable in Perfetto.
//	               ?explain=1 embeds the query's profile — per-stage latencies,
//	               cache-tier outcomes, nodes contacted, blocks read — in the
//	               JSON response (EXPLAIN ANALYZE for STASH; never cached).
//	GET  /stats    cluster counters, a flat metrics snapshot, and the hot keys
//	GET  /metrics  Prometheus text exposition of every registered metric
//	GET  /healthz  readiness detail as JSON (ingest version, node count,
//	               recorder/coalescer flags)
//	POST /faults   inject or heal a node fault (requires -faults; see FaultRequest)
//	GET  /faults   list currently faulted nodes
//
// Elastic membership (online scale-out/scale-in with warm cell handoff):
//
//	POST /admin/join       add a node; its partitions arrive warm via handoff
//	POST /admin/leave      retire a node ({"node": N}); its cells are handed
//	                       off to the surviving owners before it stops
//	GET  /admin/rebalance  membership epoch, member list, and cumulative
//	                       handoff counters
//
// With -debug the standard net/http/pprof profiles are additionally served
// under /debug/pprof/, alongside the introspection endpoints:
//
//	GET  /debug/queries  the flight recorder's last -flightrec completed query
//	                     profiles, newest first (?min_ms=, ?level=, ?n= filter)
//	GET  /debug/slow     the slow-query ring: profiles over -slowms
//	GET  /debug/hot      hot-key telemetry: the top-K most-requested cell keys,
//	                     globally and per node (?n= bounds each list)
//	GET  /debug/timeline the telemetry history: sampled time series per metric
//	                     (?name= selects one series or family, ?window= bounds
//	                     the lookback, ?step= downsamples; no ?name= lists the
//	                     retained series)
//	GET  /debug/alerts   SLO burn-rate alert states plus the recent transition
//	                     ring
//
// Usage:
//
//	stashd -addr :8080 -nodes 16 -points 512 -resilient -faults -debug
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"stash"
	"stash/internal/cell"
	"stash/internal/cluster"
	"stash/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		nodes     = flag.Int("nodes", 16, "simulated cluster size")
		seed      = flag.Uint64("seed", 42, "synthetic dataset seed")
		points    = flag.Int("points", 512, "observations per storage block")
		repl      = flag.Bool("replication", true, "enable hotspot clique replication")
		hists     = flag.Bool("histograms", false, "maintain per-attribute histograms in result cells")
		stripes   = flag.Int("stripes", stash.DefaultCacheConfig().Stripes, "lock stripes per STASH graph shard (rounded up to a power of two; 1 = single lock)")
		popwork   = flag.Int("popworkers", 2, "background cache-population workers per node (the paper's population thread, bounded)")
		diskpar   = flag.Int("diskparallel", 1, "concurrent block reads per disk fetch (1 = serial)")
		resilient = flag.Bool("resilient", true, "enable the resilient coordinator (deadlines, retries, failover, partial results)")
		coalesce  = flag.Bool("coalesce", true, "enable request coalescing (admission-window batching) and serve-side singleflight")
		window    = flag.Duration("window", stash.DefaultCoalesceWindow, "coalescer admission window (how long the first fetch waits for mergeable peers)")
		timeout   = flag.Duration("timeout", 0, "default per-query deadline (0 = none; ?timeout= overrides per request)")
		faults    = flag.Bool("faults", false, "enable the /faults chaos endpoint")
		faultseed = flag.Int64("faultseed", 1, "seed for randomized fault decisions (reply-drop sequences)")
		debug     = flag.Bool("debug", false, "serve net/http/pprof profiles and the /debug/queries, /debug/slow, /debug/hot, /debug/timeline, /debug/alerts introspection endpoints")
		flightrec = flag.Int("flightrec", 512, "flight recorder capacity: keep the last N completed query profiles (0 disables)")
		slowms    = flag.Int("slowms", 100, "slow-query threshold in milliseconds: profiles over it are logged to stderr and kept at /debug/slow (0 disables)")
		history   = flag.Int("history", 600, "telemetry history: samples retained per metric series (0 disables the timeline, SLO alerts, and health watchdog)")
		sampleInt = flag.Duration("sample-interval", obs.DefaultTSDBInterval, "telemetry history sampling cadence")
		sloP99MS  = flag.Float64("slo-p99ms", 250, "SLO target: query p99 latency in milliseconds over the fast window (0 disables the objective)")
		sloErr    = flag.Float64("slo-errratio", 0.01, "SLO target: max query error ratio (0 disables)")
		sloHit    = flag.Float64("slo-hitratio", 0.5, "SLO target: min cache hit ratio, advisory — warns but never degrades (0 disables)")
		sloCov    = flag.Float64("slo-coverage", 0.05, "SLO target: max partial-coverage ratio, answers shipped incomplete (0 disables)")
	)
	flag.Parse()

	cfg := stash.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.Seed = *seed
	cfg.PointsPerBlock = *points
	cfg.Histograms = *hists
	cfg.Stash.Stripes = *stripes
	cfg.PopulationWorkers = *popwork
	cfg.GalileoParallelReads = *diskpar
	cfg.Sleeper = stash.NewRealSleeper()
	if *repl {
		cfg.Replication = stash.DefaultReplicationConfig()
	}
	if *resilient {
		cfg.Resilience = stash.DefaultResilienceConfig()
	}
	if *coalesce {
		cfg.CoalesceWindow = *window
		if cfg.CoalesceWindow <= 0 {
			cfg.CoalesceWindow = stash.DefaultCoalesceWindow
		}
		cfg.ServeSingleflight = true
	}
	var fp *stash.FaultPlan
	if *faults {
		fp = stash.NewFaultPlan(*faultseed)
		cfg.Faults = fp
	}
	sys, err := stash.NewCluster(cfg)
	if err != nil {
		log.Fatalf("stashd: %v", err)
	}
	sys.Start()
	defer sys.Stop()

	health := cluster.NewHealth(nil, cluster.HealthConfig{
		History:  *history,
		Interval: *sampleInt,
		SLO: cluster.SLOThresholds{
			QueryP99:     *sloP99MS / 1000,
			ErrRatio:     *sloErr,
			HitRatio:     *sloHit,
			PartialRatio: *sloCov,
		},
		Structural: cluster.DefaultStructuralThresholds(),
	})
	health.Monitor.Start()
	defer health.Monitor.Stop()

	srv := &server{
		sys:            sys,
		faults:         fp,
		defaultTimeout: *timeout,
		rec:            obs.NewFlightRecorder(*flightrec),
		slow:           obs.NewSlowLog(time.Duration(*slowms)*time.Millisecond, slowRingCapacity, os.Stderr),
		health:         health,
	}
	mux := newMux(srv, *debug)

	log.Printf("stashd: %d nodes, serving on %s", *nodes, *addr)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

// newMux wires the server's routes. Split from main so tests can exercise the
// full routing table (including /metrics and the -debug pprof gating) through
// httptest.
func newMux(srv *server, debug bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", srv.handleQuery)
	mux.HandleFunc("GET /stats", srv.handleStats)
	mux.HandleFunc("GET /metrics", srv.handleMetrics)
	mux.HandleFunc("POST /faults", srv.handleFaultsPost)
	mux.HandleFunc("GET /faults", srv.handleFaultsGet)
	mux.HandleFunc("GET /healthz", srv.handleHealthz)
	mux.HandleFunc("POST /admin/join", srv.handleAdminJoin)
	mux.HandleFunc("POST /admin/leave", srv.handleAdminLeave)
	mux.HandleFunc("GET /admin/rebalance", srv.handleAdminRebalance)
	if debug {
		// The pprof handlers register themselves on DefaultServeMux at
		// import; route them explicitly so they exist only behind -debug.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		// Query introspection rides the same gate: profiles carry query
		// strings, so they are operator-facing, not public.
		mux.HandleFunc("GET /debug/queries", srv.handleDebugQueries)
		mux.HandleFunc("GET /debug/slow", srv.handleDebugSlow)
		mux.HandleFunc("GET /debug/hot", srv.handleDebugHot)
		mux.HandleFunc("GET /debug/timeline", srv.handleDebugTimeline)
		mux.HandleFunc("GET /debug/alerts", srv.handleDebugAlerts)
	}
	return mux
}

// slowRingCapacity bounds the slow-query ring behind /debug/slow: offenders
// are rare by definition, so the ring stays much smaller than the flight
// recorder.
const slowRingCapacity = 64

type server struct {
	sys            *stash.Cluster
	faults         *stash.FaultPlan
	defaultTimeout time.Duration
	// rec is the always-on flight recorder of completed query profiles; nil
	// when -flightrec is 0.
	rec *obs.FlightRecorder
	// slow retains and logs profiles over the -slowms threshold; nil when
	// disabled.
	slow *obs.SlowLog
	// health is the telemetry history pipeline (TSDB, SLO engine, watchdog);
	// nil (or a Health with nil components, -history 0) disables it.
	health *cluster.Health
}

// healthTSDB returns the server's history store, nil when disabled.
func (s *server) healthTSDB() *obs.TSDB {
	if s.health == nil {
		return nil
	}
	return s.health.TSDB
}

// record finishes a query's profile with the given status and feeds it to the
// flight recorder and slow-query log. Returns the settled snapshot for
// ?explain=1 responses.
func (s *server) record(p *obs.QueryProfile, status string) obs.ProfileData {
	p.Finish(status)
	d := p.Data()
	// One id correlates this query's slow-log line with its flight-recorder
	// entry (?id= on /debug/queries and /debug/slow).
	d.ID = obs.NextQueryID()
	s.rec.Record(d)
	s.slow.Observe(d)
	return d
}

// QueryRequest is the JSON body of POST /query.
type QueryRequest struct {
	MinLat      float64 `json:"minLat"`
	MaxLat      float64 `json:"maxLat"`
	MinLon      float64 `json:"minLon"`
	MaxLon      float64 `json:"maxLon"`
	Start       string  `json:"start"` // RFC 3339
	End         string  `json:"end"`   // RFC 3339
	SpatialRes  int     `json:"spatialRes"`
	TemporalRes string  `json:"temporalRes"` // Year|Month|Day|Hour
}

// CellResponse is one aggregated cell in the response, carrying the center
// point so map panels can place it directly.
type CellResponse struct {
	Geohash string               `json:"geohash"`
	Time    string               `json:"time"`
	Lat     float64              `json:"lat"`
	Lon     float64              `json:"lon"`
	Stats   map[string]AttrBlock `json:"stats"`
}

// AttrBlock is one attribute's aggregate in the response.
type AttrBlock struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// Histogram is present when the server runs with -histograms.
	Histogram *HistogramBlock `json:"histogram,omitempty"`
}

// HistogramBlock is an attribute's distribution in the response.
type HistogramBlock struct {
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Under   int64   `json:"under"`
	Over    int64   `json:"over"`
	Buckets []int64 `json:"buckets"`
}

// CoverageBlock reports how much of the query's footprint a degraded answer
// actually covers (see query.Coverage). It is present in the response only
// when the coordinator tracked coverage, i.e. the resilient path ran.
type CoverageBlock struct {
	Complete   bool              `json:"complete"`
	Requested  int               `json:"requested"`
	Covered    int               `json:"covered"`
	Degraded   int               `json:"degraded"`
	Missing    int               `json:"missing"`
	Recovered  int               `json:"recovered"`
	ShareRatio float64           `json:"shareRatio"`
	NodeErrors map[string]string `json:"nodeErrors,omitempty"`
}

// QueryResponse is the body of a successful POST /query. A 206 response
// carries a Coverage block describing the degradation; ?trace=1 adds the
// recorded span tree.
type QueryResponse struct {
	Cells     []CellResponse  `json:"cells"`
	LatencyMS float64         `json:"latencyMs"`
	Coverage  *CoverageBlock  `json:"coverage,omitempty"`
	Trace     []*obs.SpanNode `json:"trace,omitempty"`
	// Profile is the query's EXPLAIN ANALYZE provenance, present with
	// ?explain=1 (never cached).
	Profile *obs.ProfileData `json:"profile,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	q, err := buildQuery(req)
	if err != nil {
		http.Error(w, "bad query: "+err.Error(), http.StatusBadRequest)
		return
	}

	deadline := s.defaultTimeout
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			http.Error(w, "bad timeout "+raw, http.StatusBadRequest)
			return
		}
		deadline = d
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	traceMode := r.URL.Query().Get("trace")
	var tr *obs.Trace
	switch traceMode {
	case "", "0", "false":
		traceMode = ""
	case "1", "true", "json":
		traceMode = "json"
		ctx, tr = obs.NewTrace(ctx)
	case "chrome":
		ctx, tr = obs.NewTrace(ctx)
	default:
		http.Error(w, "unknown trace mode "+traceMode, http.StatusBadRequest)
		return
	}

	explain := false
	switch raw := r.URL.Query().Get("explain"); raw {
	case "", "0", "false":
	case "1", "true":
		explain = true
	default:
		http.Error(w, "unknown explain mode "+raw, http.StatusBadRequest)
		return
	}
	// Profile the query whenever anyone will see the result: the explain
	// response, the flight recorder, or the slow-query log. With all three
	// off, no profile is installed and the serve path stays allocation-free.
	var prof *obs.QueryProfile
	if explain || s.rec != nil || s.slow != nil {
		ctx, prof = obs.WithProfile(ctx)
	}

	begin := time.Now()
	res, err := s.sys.Client().QueryContext(ctx, q)
	if err != nil {
		if prof != nil {
			s.record(prof, "error")
		}
		switch {
		case errors.Is(err, context.DeadlineExceeded),
			errors.Is(err, stash.ErrNoCoverage),
			errors.Is(err, stash.ErrUnavailable):
			// The deadline elapsed (or every owner failed) before any part of
			// the answer materialised: the paper's "no answer in time" case.
			http.Error(w, "query timed out: "+err.Error(), http.StatusGatewayTimeout)
		default:
			http.Error(w, "query failed: "+err.Error(), http.StatusInternalServerError)
		}
		return
	}

	status := http.StatusOK
	outcome := "ok"
	if !res.Coverage.Complete() {
		// Partial answer under degradation: signal it in the status code so
		// dashboards can badge the panel, but still deliver the cells.
		status = http.StatusPartialContent
		outcome = "partial"
	}
	var profData obs.ProfileData
	if prof != nil {
		profData = s.record(prof, outcome)
	}

	if traceMode == "chrome" {
		// The trace is the payload: Chrome trace-event JSON, loadable
		// directly in Perfetto / chrome://tracing.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		if err := tr.WriteChrome(w); err != nil {
			log.Printf("stashd: chrome trace export: %v", err)
		}
		return
	}

	switch format := r.URL.Query().Get("format"); format {
	case "geojson":
		w.Header().Set("Content-Type", "application/geo+json")
		w.WriteHeader(status)
		if err := stash.WriteGeoJSON(w, res); err != nil {
			log.Printf("stashd: geojson export: %v", err)
		}
		return
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(status)
		if err := stash.WriteCSV(w, res); err != nil {
			log.Printf("stashd: csv export: %v", err)
		}
		return
	case "", "json":
		// fall through to the native JSON shape below
	default:
		http.Error(w, "unknown format "+format, http.StatusBadRequest)
		return
	}

	resp := QueryResponse{LatencyMS: float64(time.Since(begin).Microseconds()) / 1000}
	if traceMode == "json" {
		resp.Trace = tr.Tree()
	}
	if explain {
		// Profiles are per-request provenance: mark the response uncacheable
		// so an intermediary never serves one query's explain for another.
		w.Header().Set("Cache-Control", "no-store")
		resp.Profile = &profData
	}
	if cov := res.Coverage; cov.Requested > 0 {
		resp.Coverage = &CoverageBlock{
			Complete:   cov.Complete(),
			Requested:  cov.Requested,
			Covered:    cov.Covered,
			Degraded:   cov.Degraded,
			Missing:    cov.Missing(),
			Recovered:  cov.Recovered,
			ShareRatio: cov.Ratio(),
			NodeErrors: cov.NodeErrors,
		}
	}
	for key, sum := range res.Cells {
		lat, lon := key.Box().Center()
		cr := CellResponse{
			Geohash: key.Geohash.String(),
			Time:    key.Time.String(),
			Lat:     lat,
			Lon:     lon,
			Stats:   map[string]AttrBlock{},
		}
		for _, attr := range sum.Attrs() {
			st, _ := sum.Stat(attr)
			mean := st.Mean()
			if math.IsNaN(mean) {
				mean = 0
			}
			block := AttrBlock{Count: st.Count, Sum: st.Sum, Min: st.Min, Max: st.Max, Mean: mean}
			if h := res.Hists[key].Hist(attr); h != nil {
				block.Histogram = &HistogramBlock{
					Lo: h.Lo, Hi: h.Hi, Under: h.Under, Over: h.Over, Buckets: h.Counts,
				}
			}
			cr.Stats[attr] = block
		}
		resp.Cells = append(resp.Cells, cr)
	}
	writeJSONStatus(w, status, resp)
}

// StatsResponse is the body of GET /stats: the aggregated node counters plus
// a flat snapshot of every registered metric (histograms expand to _count,
// _sum, and _p50/_p95/_p99 entries), so one poll answers both "what has the
// cluster done" and "how degraded is it right now" — retries, reroutes,
// breaker trips, and fault firings all appear under their metric names.
// HotKeys folds in the globally hottest requested cells (see /debug/hot for
// the full per-node view).
type StatsResponse struct {
	Cluster stash.NodeStats    `json:"cluster"`
	Metrics map[string]float64 `json:"metrics"`
	HotKeys []HotKeyEntry      `json:"hotKeys,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, StatsResponse{
		Cluster: s.sys.TotalStats(),
		Metrics: obs.Default().FlatSnapshot(),
		HotKeys: hotEntries(s.sys.HotKeys(10)),
	})
}

// HealthResponse is the body of GET /healthz: readiness detail rather than a
// bare 200, so orchestration and dashboards can see what this instance is
// actually running.
type HealthResponse struct {
	Status         string `json:"status"`
	Nodes          int    `json:"nodes"`
	Epoch          uint64 `json:"epoch"`
	IngestVersion  int64  `json:"ingestVersion"`
	FlightRecorder bool   `json:"flightRecorder"`
	FlightRecCap   int    `json:"flightRecCap,omitempty"`
	SlowLogMS      int64  `json:"slowLogMs,omitempty"`
	Coalescer      bool   `json:"coalescer"`
	// Degraded/Reasons/Warnings carry the health watchdog's verdict (always
	// false/empty when -history is 0: no watchdog, no opinion).
	Degraded bool     `json:"degraded"`
	Reasons  []string `json:"reasons,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var verdict obs.Verdict
	if s.health != nil {
		verdict = s.health.Watchdog.Verdict()
	}
	status := "ok"
	if verdict.Degraded {
		status = "degraded"
	}
	writeJSON(w, HealthResponse{
		Status:         status,
		Nodes:          s.sys.Ring().Size(),
		Epoch:          s.sys.Epoch(),
		IngestVersion:  s.sys.IngestVersion(),
		FlightRecorder: s.rec != nil,
		FlightRecCap:   s.rec.Cap(),
		SlowLogMS:      s.slow.Threshold().Milliseconds(),
		Coalescer:      s.sys.CoalescerEnabled(),
		Degraded:       verdict.Degraded,
		Reasons:        verdict.Reasons,
		Warnings:       verdict.Warnings,
	})
}

// JoinResponse is the body of POST /admin/join: the id the new node was
// assigned plus the post-handoff membership snapshot.
type JoinResponse struct {
	Node      string                `json:"node"`
	Rebalance stash.RebalanceStatus `json:"rebalance"`
}

func (s *server) handleAdminJoin(w http.ResponseWriter, _ *http.Request) {
	id, err := s.sys.Join()
	if err != nil {
		http.Error(w, "join: "+err.Error(), http.StatusConflict)
		return
	}
	st := s.sys.RebalanceStatus()
	log.Printf("stashd: node %v joined, epoch %d (%d cells / %d bytes migrated in %.1fms)",
		id, st.Epoch, st.CellsMigrated, st.BytesMigrated, st.LastDurationMS)
	writeJSON(w, JoinResponse{Node: id.String(), Rebalance: st})
}

// LeaveRequest is the body of POST /admin/leave: the numeric id of the node
// to retire (as listed in /admin/rebalance members, without the "node-"
// prefix).
type LeaveRequest struct {
	Node int `json:"node"`
}

// LeaveResponse is the body of POST /admin/leave.
type LeaveResponse struct {
	Node      string                `json:"node"`
	Rebalance stash.RebalanceStatus `json:"rebalance"`
}

func (s *server) handleAdminLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	id := stash.NodeID(req.Node)
	if err := s.sys.Leave(id); err != nil {
		http.Error(w, "leave: "+err.Error(), http.StatusConflict)
		return
	}
	st := s.sys.RebalanceStatus()
	log.Printf("stashd: node %v left, epoch %d (%d cells / %d bytes migrated in %.1fms)",
		id, st.Epoch, st.CellsMigrated, st.BytesMigrated, st.LastDurationMS)
	writeJSON(w, LeaveResponse{Node: id.String(), Rebalance: st})
}

func (s *server) handleAdminRebalance(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.sys.RebalanceStatus())
}

// ProfilesResponse is the body of GET /debug/queries and GET /debug/slow:
// retained query profiles, newest first.
type ProfilesResponse struct {
	Count    int               `json:"count"`
	Profiles []obs.ProfileData `json:"profiles"`
}

// profileFilter parses the shared ?min_ms= / ?level= / ?n= query filters.
func profileFilter(r *http.Request) (obs.ProfileFilter, error) {
	var f obs.ProfileFilter
	q := r.URL.Query()
	if raw := q.Get("min_ms"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			return f, fmt.Errorf("bad min_ms %q", raw)
		}
		f.MinMS = v
	}
	if raw := q.Get("level"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return f, fmt.Errorf("bad level %q", raw)
		}
		f.Level = v
	}
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return f, fmt.Errorf("bad n %q", raw)
		}
		f.N = v
	}
	if raw := q.Get("id"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil || v == 0 {
			return f, fmt.Errorf("bad id %q", raw)
		}
		f.ID = v
	}
	return f, nil
}

func (s *server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		http.Error(w, "flight recorder disabled (start with -flightrec N)", http.StatusConflict)
		return
	}
	f, err := profileFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ps := s.rec.Snapshot(f)
	writeJSON(w, ProfilesResponse{Count: len(ps), Profiles: ps})
}

func (s *server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	if s.slow == nil {
		http.Error(w, "slow-query log disabled (start with -slowms N)", http.StatusConflict)
		return
	}
	f, err := profileFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ps := s.slow.Snapshot(f)
	writeJSON(w, ProfilesResponse{Count: len(ps), Profiles: ps})
}

// HotKeyEntry is one ranked cell key in the hot-key telemetry. Count
// overestimates the true request frequency by at most Err (space-saving
// sketch guarantee).
type HotKeyEntry struct {
	Geohash string `json:"geohash"`
	Time    string `json:"time"`
	Count   uint64 `json:"count"`
	Err     uint64 `json:"err,omitempty"`
}

// HotResponse is the body of GET /debug/hot: the most-requested cell keys
// globally and per node, epoch-decayed so the ranking tracks the current
// workload.
type HotResponse struct {
	Total  uint64                   `json:"total"`
	Global []HotKeyEntry            `json:"global"`
	Nodes  map[string][]HotKeyEntry `json:"nodes,omitempty"`
}

func (s *server) handleDebugHot(w http.ResponseWriter, r *http.Request) {
	n := 20
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			http.Error(w, "bad n "+raw, http.StatusBadRequest)
			return
		}
		n = v
	}
	resp := HotResponse{Total: s.sys.HotKeyTotal(), Global: hotEntries(s.sys.HotKeys(n))}
	for _, node := range s.sys.Nodes() {
		if es := hotEntries(node.HotKeys(n)); len(es) > 0 {
			if resp.Nodes == nil {
				resp.Nodes = map[string][]HotKeyEntry{}
			}
			resp.Nodes[node.ID().String()] = es
		}
	}
	writeJSON(w, resp)
}

// TimelineResponse is the body of GET /debug/timeline. Without ?name= it
// lists the retained series names; with one it carries the matching series'
// sampled points (plus derived rates and windowed quantiles).
type TimelineResponse struct {
	IntervalMS float64          `json:"intervalMs"`
	History    int              `json:"history"`
	Samples    int              `json:"samples"`
	Names      []string         `json:"names,omitempty"`
	Series     []obs.SeriesData `json:"series,omitempty"`
}

func (s *server) handleDebugTimeline(w http.ResponseWriter, r *http.Request) {
	t := s.healthTSDB()
	if !t.Enabled() {
		http.Error(w, "telemetry history disabled (start with -history N)", http.StatusConflict)
		return
	}
	q := r.URL.Query()
	resp := TimelineResponse{
		IntervalMS: float64(t.Interval().Milliseconds()),
		History:    t.History(),
		Samples:    t.Samples(),
	}
	name := q.Get("name")
	if name == "" {
		resp.Names = t.Names()
		writeJSON(w, resp)
		return
	}
	var window time.Duration
	if raw := q.Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			http.Error(w, "bad window "+raw, http.StatusBadRequest)
			return
		}
		window = d
	}
	step := 1
	if raw := q.Get("step"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			http.Error(w, "bad step "+raw, http.StatusBadRequest)
			return
		}
		step = v
	}
	series, ok := t.Query(name, window, step)
	if !ok {
		http.Error(w, "unknown series "+name, http.StatusNotFound)
		return
	}
	resp.Series = series
	writeJSON(w, resp)
}

// AlertsResponse is the body of GET /debug/alerts: every objective's current
// burn-rate state plus the recent transition ring, newest first.
type AlertsResponse struct {
	Worst       string            `json:"worst"`
	Alerts      []obs.AlertStatus `json:"alerts"`
	Transitions []obs.Transition  `json:"transitions,omitempty"`
}

func (s *server) handleDebugAlerts(w http.ResponseWriter, _ *http.Request) {
	var slo *obs.SLOEngine
	if s.health != nil {
		slo = s.health.SLO
	}
	if slo == nil {
		http.Error(w, "SLO engine disabled (start with -history N)", http.StatusConflict)
		return
	}
	writeJSON(w, AlertsResponse{
		Worst:       slo.WorstState().String(),
		Alerts:      slo.Current(),
		Transitions: slo.Transitions(),
	})
}

func hotEntries(entries []obs.TopEntry[cell.Key]) []HotKeyEntry {
	if len(entries) == 0 {
		return nil
	}
	out := make([]HotKeyEntry, len(entries))
	for i, e := range entries {
		out[i] = HotKeyEntry{Geohash: e.Key.Geohash.String(), Time: e.Key.Time.String(), Count: e.Count, Err: e.Err}
	}
	return out
}

// handleMetrics serves the Prometheus text exposition of the process-global
// registry. The mux's "GET /metrics" pattern also matches HEAD (net/http
// treats HEAD as GET for routing); a HEAD probe gets the headers without the
// exposition body being generated.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	if err := obs.Default().WritePrometheus(w); err != nil {
		log.Printf("stashd: metrics exposition: %v", err)
	}
}

// FaultRequest is the JSON body of POST /faults. Heal=true clears the node's
// faults; otherwise Kind selects what to inject ("crash", "pause", "drop",
// "reject", "error"), with Pause in milliseconds for pause faults and
// DropProb in [0,1] for drop faults.
type FaultRequest struct {
	Node     int     `json:"node"`
	Kind     string  `json:"kind"`
	Heal     bool    `json:"heal"`
	PauseMS  int     `json:"pauseMs"`
	DropProb float64 `json:"dropProb"`
}

// FaultsResponse lists the currently faulted node ids.
type FaultsResponse struct {
	Faulted []int `json:"faulted"`
}

func (s *server) handleFaultsPost(w http.ResponseWriter, r *http.Request) {
	if s.faults == nil {
		http.Error(w, "fault injection disabled (start with -faults)", http.StatusConflict)
		return
	}
	var req FaultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	ev := stash.ScheduledFault{Node: req.Node, Heal: req.Heal}
	if !req.Heal {
		kind, err := stash.ParseFaultKind(req.Kind)
		if err != nil {
			http.Error(w, "bad fault: "+err.Error(), http.StatusBadRequest)
			return
		}
		ev.Kind = kind
		ev.Pause = time.Duration(req.PauseMS) * time.Millisecond
		ev.DropProb = req.DropProb
	}
	s.faults.Apply(ev)
	log.Printf("stashd: fault event %s", ev)
	writeJSON(w, FaultsResponse{Faulted: s.faults.Faulted()})
}

func (s *server) handleFaultsGet(w http.ResponseWriter, _ *http.Request) {
	if s.faults == nil {
		http.Error(w, "fault injection disabled (start with -faults)", http.StatusConflict)
		return
	}
	writeJSON(w, FaultsResponse{Faulted: s.faults.Faulted()})
}

func buildQuery(req QueryRequest) (stash.Query, error) {
	start, err := time.Parse(time.RFC3339, req.Start)
	if err != nil {
		return stash.Query{}, fmt.Errorf("start: %w", err)
	}
	end, err := time.Parse(time.RFC3339, req.End)
	if err != nil {
		return stash.Query{}, fmt.Errorf("end: %w", err)
	}
	tr, err := stash.NewTimeRange(start, end)
	if err != nil {
		return stash.Query{}, err
	}
	var res stash.Resolution
	switch req.TemporalRes {
	case "Year":
		res = stash.Year
	case "Month":
		res = stash.Month
	case "Day", "":
		res = stash.Day
	case "Hour":
		res = stash.Hour
	default:
		return stash.Query{}, fmt.Errorf("unknown temporal resolution %q", req.TemporalRes)
	}
	q := stash.Query{
		Box:         stash.Box{MinLat: req.MinLat, MaxLat: req.MaxLat, MinLon: req.MinLon, MaxLon: req.MaxLon},
		Time:        tr,
		SpatialRes:  req.SpatialRes,
		TemporalRes: res,
	}
	return q, q.Validate()
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("stashd: encode response: %v", err)
	}
}
