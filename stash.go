// Package stash is the public API of the STASH reproduction: a distributed,
// in-memory cache for hierarchical spatiotemporal aggregation queries,
// layered as middleware over a Galileo-style distributed block store, after
// Mitra et al., "STASH: Fast Hierarchical Aggregation Queries for Effective
// Visual Spatiotemporal Explorations" (IEEE CLUSTER 2019).
//
// The package re-exports the system's building blocks as aliases, so the
// whole surface is reachable from one import:
//
//	import "stash"
//
//	cfg := stash.DefaultConfig()
//	sys, err := stash.NewCluster(cfg)
//	if err != nil { ... }
//	sys.Start()
//	defer sys.Stop()
//
//	q := stash.Query{
//		Box:         stash.Box{MinLat: 33, MaxLat: 37, MinLon: -103, MaxLon: -95},
//		Time:        stash.DayRange(2015, 2, 2),
//		SpatialRes:  4,
//		TemporalRes: stash.Day,
//	}
//	res, err := sys.Client().Query(q)
//
// Architecture (one instance simulates the full deployment in-process):
//
//	front-end  →  Client (coordinator: zero-hop owner lookup, fan-out, merge)
//	              └→ Node (request queue + workers)
//	                   ├→ STASH graph  (per-level cell cache, freshness, PLM)
//	                   ├→ guest graph  (replicated cliques from hotspots)
//	                   └→ Galileo shard (block store, scan + aggregate)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced table and figure.
package stash

import (
	"io"
	"stash/internal/cell"
	"stash/internal/cluster"
	"stash/internal/dht"

	"stash/internal/elastic"
	"stash/internal/export"
	"stash/internal/frontend"
	"stash/internal/geohash"
	"stash/internal/namgen"
	"stash/internal/obs"
	"stash/internal/query"
	"stash/internal/replication"
	"stash/internal/simnet"
	"stash/internal/stash"
	"stash/internal/temporal"
	"stash/internal/workload"
)

// --- spatial primitives ---

// Box is a latitude/longitude bounding rectangle.
type Box = geohash.Box

// Direction is one of the eight compass directions used by panning and
// neighbor discovery.
type Direction = geohash.Direction

// Compass directions, clockwise from north.
const (
	North     = geohash.North
	NorthEast = geohash.NorthEast
	East      = geohash.East
	SouthEast = geohash.SouthEast
	South     = geohash.South
	SouthWest = geohash.SouthWest
	West      = geohash.West
	NorthWest = geohash.NorthWest
)

// World is the whole-globe bounding box.
var World = geohash.World

// Point is a latitude/longitude coordinate.
type Point = geohash.Point

// Polygon is a simple lat/lon polygon for lasso queries (the general form
// of the paper's Query_Polygon).
type Polygon = geohash.Polygon

// NewPolygonQuery builds a lasso query over the polygon at the given
// resolutions.
func NewPolygonQuery(p Polygon, tr TimeRange, spatialRes int, temporalRes Resolution) (Query, error) {
	return query.NewPolygonQuery(p, tr, spatialRes, temporalRes)
}

// EncodeGeohash returns the geohash of a point at the given precision.
func EncodeGeohash(lat, lon float64, precision int) string {
	return geohash.Encode(lat, lon, precision)
}

// DecodeGeohash returns the bounding box of a geohash.
func DecodeGeohash(gh string) (Box, error) { return geohash.DecodeBox(gh) }

// --- temporal primitives ---

// Resolution is a temporal resolution rung (Year → Hour).
type Resolution = temporal.Resolution

// Temporal resolutions, coarse to fine.
const (
	Year  = temporal.Year
	Month = temporal.Month
	Day   = temporal.Day
	Hour  = temporal.Hour
)

// TimeRange is a half-open [start, end) interval.
type TimeRange = temporal.Range

// TimeLabel is a temporal cell identifier (e.g. "2015-02" at Month).
type TimeLabel = temporal.Label

// ParseTimeLabel validates text as a label at the given resolution; use it
// with Cluster.UpdateBlock / InvalidateBlock to name a block's day.
func ParseTimeLabel(text string, r Resolution) (TimeLabel, error) {
	return temporal.Parse(text, r)
}

// DayRange returns the one-day range starting at the given civil date (UTC).
var DayRange = temporal.DayRange

// NewTimeRange builds a validated time range.
var NewTimeRange = temporal.NewRange

// --- query model ---

// Query is a hierarchical aggregation query: a spatial rectangle, a time
// range, and the requested spatial (geohash precision) and temporal
// resolutions. Its OLAP methods (Pan, DiceShrink, DrillDown, RollUp,
// SliceTime, ...) derive the visual-navigation sequences of the paper.
type Query = query.Query

// Result maps each non-empty footprint cell to its aggregate summary.
type Result = query.Result

// CellKey identifies one cell: a geohash plus a temporal label.
type CellKey = cell.Key

// Summary is the mergeable per-attribute aggregate payload of a cell: a
// 128-byte value with one Stat per attribute of the fixed schema (Attributes).
// Read an attribute by name with Summary.Stat or Summary.Count.
type Summary = cell.Summary

// Stat is one attribute's count/sum/min/max aggregate.
type Stat = cell.Stat

// Histogram is a mergeable fixed-bucket distribution, kept beside the cell
// summaries when Config.Histograms is set (drives histogram panels):
// Result.Hists[key].Hist(attribute), nil when none is kept.
type Histogram = cell.Histogram

// --- system assembly ---

// Config assembles a simulated STASH deployment.
type Config = cluster.Config

// CacheConfig tunes the per-node STASH graph shard.
type CacheConfig = stash.Config

// ReplicationConfig tunes hotspot handling (clique handoff).
type ReplicationConfig = replication.Config

// CostModel prices the simulated disk/network/memory operations.
type CostModel = simnet.Model

// Cluster is a running STASH deployment: nodes, ring, and cost plumbing.
type Cluster = cluster.Cluster

// Client is the query coordinator bound to a cluster.
type Client = cluster.Client

// Node is one cluster member.
type Node = cluster.Node

// NodeID identifies a cluster member on the DHT ring.
type NodeID = dht.NodeID

// NodeStats snapshots one node's counters.
type NodeStats = cluster.NodeStats

// RebalanceStatus snapshots the membership epoch, the member list, and the
// cumulative warm-handoff counters of a cluster's elastic membership layer.
type RebalanceStatus = cluster.RebalanceStatus

// ErrNotOwner is the retriable bounce a node returns when a request was
// routed under a superseded membership epoch; coordinators refresh their
// view and re-plan on it.
type ErrNotOwner = cluster.ErrNotOwner

// DefaultConfig returns a 16-node STASH-enabled cluster with metered
// (non-sleeping) simulated costs — a good starting point for examples and
// tests. For timing experiments swap in a sleeping cost applier:
//
//	cfg := stash.DefaultConfig()
//	cfg.Sleeper = stash.NewRealSleeper()
func DefaultConfig() Config { return cluster.DefaultConfig() }

// DefaultCacheConfig returns the cache tuning used by the experiments.
func DefaultCacheConfig() CacheConfig { return stash.DefaultConfig() }

// DefaultReplicationConfig returns the paper-aligned hotspot settings.
func DefaultReplicationConfig() ReplicationConfig { return replication.DefaultConfig() }

// DefaultCostModel returns a disk≫network≫memory cost model.
func DefaultCostModel() CostModel { return simnet.Default() }

// NewCluster assembles a cluster; call Start before querying and Stop when
// done.
func NewCluster(cfg Config) (*Cluster, error) { return cluster.New(cfg) }

// Sleeper applies simulated costs (real sleeps or pure accounting).
type Sleeper = simnet.Sleeper

// NewRealSleeper returns a cost applier that actually sleeps, so concurrent
// load exhibits genuine queueing. Use it for latency/throughput experiments.
func NewRealSleeper() Sleeper { return simnet.NewReal() }

// NewMeterSleeper returns an accounting-only cost applier for tests.
func NewMeterSleeper() Sleeper { return simnet.NewMeter() }

// --- fault injection & resilience (chaos testing, graceful degradation) ---

// FaultPlan holds per-node injected failures (crash, pause, reply drop,
// admission rejection, storage error). Wire one into Config.Faults, then
// flip faults at runtime; the transport observes them on the next request.
// All stochastic decisions are deterministic functions of the plan's seed.
type FaultPlan = simnet.FaultPlan

// NewFaultPlan returns an all-healthy plan whose randomized decisions
// derive from seed.
func NewFaultPlan(seed int64) *FaultPlan { return simnet.NewFaultPlan(seed) }

// FaultKind enumerates the injectable failure modes.
type FaultKind = simnet.FaultKind

// The injectable failure modes.
const (
	FaultCrash  = simnet.FaultCrash  // node never answers
	FaultPause  = simnet.FaultPause  // node answers after an injected stall
	FaultDrop   = simnet.FaultDrop   // node works but replies are lost
	FaultReject = simnet.FaultReject // node bounces requests at admission
	FaultError  = simnet.FaultError  // node answers with a permanent error
)

// ScheduledFault is one timed entry of a chaos schedule.
type ScheduledFault = simnet.ScheduledFault

// ParseFaultKind parses a fault kind name ("crash", "pause", "drop",
// "reject", "error").
var ParseFaultKind = simnet.ParseFaultKind

// GenerateFaultSchedule derives a deterministic chaos schedule (fault and
// heal events over a stepped timeline) from a seed — the same seed always
// replays the same failures.
var GenerateFaultSchedule = simnet.GenerateFaultSchedule

// ResilienceConfig tunes the coordinator's failure handling: per-attempt
// deadlines, retries with backoff, helper reroute, scatter fallback, and
// graceful degradation to partial results. The zero value preserves
// fail-fast semantics.
type ResilienceConfig = cluster.ResilienceConfig

// DefaultResilienceConfig returns production-shaped failure handling.
func DefaultResilienceConfig() ResilienceConfig { return cluster.DefaultResilienceConfig() }

// DefaultCoalesceWindow is the default admission window for client-side
// request coalescing (Config.CoalesceWindow).
const DefaultCoalesceWindow = cluster.DefaultCoalesceWindow

// Coverage is a result's partial-result report: which requested keys were
// fully covered, degraded (under-counted), or missing, and why. The zero
// value means complete by construction.
type Coverage = query.Coverage

// Failure-classification errors surfaced by the coordinator.
var (
	// ErrNoCoverage reports a degraded query none of whose footprint could
	// be served.
	ErrNoCoverage = cluster.ErrNoCoverage
	// ErrRejected reports a node bouncing a request at admission.
	ErrRejected = cluster.ErrRejected
	// ErrUnavailable reports a node that never answered within the deadline.
	ErrUnavailable = cluster.ErrUnavailable
	// ErrFaulted reports a permanent node storage fault.
	ErrFaulted = cluster.ErrFaulted
)

// Retryable classifies a node sub-request error: true for transient
// failures a retry may fix, false for permanent ones.
var Retryable = cluster.Retryable

// --- workloads ---

// SizeClass is one of the paper's four query sizes.
type SizeClass = workload.SizeClass

// The paper's query-size classes.
const (
	Country = workload.Country
	State   = workload.State
	County  = workload.County
	City    = workload.City
)

// Attributes lists the synthetic dataset's observed fields.
var Attributes = namgen.Attributes

// --- result export ---

// WriteGeoJSON renders a result as a GeoJSON FeatureCollection (one polygon
// per cell with aggregate properties) — the format map panels ingest.
func WriteGeoJSON(w io.Writer, r Result) error { return export.WriteGeoJSON(w, r) }

// WriteCSV renders a result as CSV, one row per cell.
func WriteCSV(w io.Writer, r Result) error { return export.WriteCSV(w, r) }

// --- front-end tier (paper §IX-A future work, implemented) ---

// FrontendClient wraps a cluster client with a small local STASH graph and
// optional predictive prefetching, so narrow browsing is served without
// back-end round trips.
type FrontendClient = frontend.Client

// FrontendConfig tunes the front-end tier.
type FrontendConfig = frontend.Config

// Predictor guesses the next query from recent navigation history.
type Predictor = frontend.Predictor

// NewFrontendClient builds a front-end tier over a cluster client.
func NewFrontendClient(inner *Client, cfg FrontendConfig) *FrontendClient {
	return frontend.NewClient(inner, cfg)
}

// DefaultFrontendConfig returns a 20k-cell prefetching front-end.
func DefaultFrontendConfig() FrontendConfig { return frontend.DefaultConfig() }

// NewMomentumPredictor returns the default navigation predictor
// (pan/zoom/dice momentum extrapolation).
func NewMomentumPredictor() Predictor { return frontend.NewMomentumPredictor() }

// --- observability ---

// MetricsRegistry is a concurrent metrics registry (counters, gauges,
// histograms) with Prometheus text exposition. Every subsystem records into
// the process-global default registry.
type MetricsRegistry = obs.Registry

// DefaultMetrics returns the process-global metrics registry — the one
// stashd serves at GET /metrics and every package instruments.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// QueryTrace collects the span tree of one traced operation; export it as
// Chrome trace-event JSON (WriteChrome) for Perfetto, or walk Tree().
type QueryTrace = obs.Trace

// SpanNode is one node of an exported span tree.
type SpanNode = obs.SpanNode

// NewQueryTrace arms span recording on a context: pass the returned context
// into Client.QueryContext and read the span tree from the returned trace
// after the query completes.
var NewQueryTrace = obs.NewTrace

// --- comparator ---

// Elastic is the ElasticSearch-style comparator engine used by the Fig. 8
// experiments.
type Elastic = elastic.Engine

// ElasticConfig assembles a comparator engine.
type ElasticConfig = elastic.Config

// NewElastic assembles the comparator engine.
func NewElastic(cfg ElasticConfig) *Elastic { return elastic.New(cfg) }

// DefaultElasticConfig mirrors the paper's ES deployment at simulation
// scale.
func DefaultElasticConfig() ElasticConfig { return elastic.DefaultConfig() }
