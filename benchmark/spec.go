package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric the benchmark prints. The lists below are the
// program's half of the contract; BENCHMARK.json is the other half and the
// schema test fails when they differ.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics BENCHMARK.json gives a regression bound: the ones
// that repeat to within a third of it on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"charged_ms_per_step", "ms"},
	{"allocs_per_step", "count"},
	{"alloc_kb_per_step", "KiB"},
	{"live_heap_mb", "MiB"},
}

// demotedMetrics are end-to-end in meaning (what an analyst sees) but are
// printed per-layer, without a bound: the four times spread 10 to 20 % from
// run to run on a shared host, blocks_read_per_step is 0 by design on
// explore_warm and failed_ratio must be 0 everywhere, and the driver gates
// only metrics that are never 0. README.md has the numbers.
var demotedMetrics = []metricDef{
	{"step_ms_p50", "ms"},
	{"step_ms_p95", "ms"},
	{"steps_per_s", "1/s"},
	{"cpu_ms_per_step", "ms"},
	{"blocks_read_per_step", "count"},
	{"failed_ratio", "ratio"},
}

// ladderMetrics are timed in isolation on the fixed footprint F.
var ladderMetrics = []metricDef{
	{"geohash.cover_ns_per_key", "ns"},
	{"query.footprint_ns_per_key", "ns"},
	{"query.footprint_allocs_per_key", "count"},
	{"query.columnar_merge_ns_per_cell", "ns"},
	{"dht.group_ns_per_key", "ns"},
	{"stash.get_ns_per_key", "ns"},
	{"stash.get_b_per_key", "B"},
	{"stash.get_allocs_per_key", "count"},
	{"stash.get_miss_ns_per_key", "ns"},
	{"stash.get_stale_ns_per_key", "ns"},
	{"stash.derive_ns_per_key", "ns"},
	{"stash.put_ns_per_cell", "ns"},
	{"stash.put_allocs_per_cell", "count"},
	{"stash.put_evict_ns_per_cell", "ns"},
	{"namgen.block_ns_per_point", "ns"},
	{"galileo.fetch_ns_per_key", "ns"},
	{"galileo.fetch_ns_per_point", "ns"},
	{"galileo.fetch_allocs_per_key", "count"},
	{"galileo.blocks_per_key", "count"},
	{"wire.encode_result_ns_per_cell", "ns"},
	{"wire.decode_result_ns_per_cell", "ns"},
	{"wire.decode_result_allocs_per_cell", "count"},
	{"wire.result_b_per_cell", "B"},
	{"wire.encode_keys_ns_per_key", "ns"},
	{"wire.decode_keys_ns_per_key", "ns"},
	{"wire.keys_delta_b_per_key", "B"},
	{"cluster.fanin_ns_per_cell", "ns"},
	{"cluster.submit_ns_per_key", "ns"},
	{"cluster.fetch_ns_per_key", "ns"},
	{"cluster.fetch_allocs_per_key", "count"},
	{"frontend.hit_ns_per_key", "ns"},
	{"export.geojson_ns_per_cell", "ns"},
	{"export.geojson_b_per_cell", "B"},
}

// countedMetrics are public Stats deltas over a workload's measured phase.
var countedMetrics = []metricDef{
	{"stash.hit_ratio", "ratio"},
	{"stash.derived_per_step", "count"},
	{"stash.evictions_per_step", "count"},
	{"stash.resident_cells", "count"},
	{"galileo.disk_cells_per_step", "count"},
	{"galileo.points_scanned_per_step", "count"},
	{"cluster.keys_per_step", "count"},
	{"cluster.fanout_nodes_per_step", "count"},
	{"cluster.queue_peak", "count"},
	{"cluster.populate_ms_per_step", "ms"},
	{"cluster.populated_cells_per_step", "count"},
	{"cluster.step_ms_p99", "ms"},
	{"cluster.update_block_us_p50", "us"},
	{"cluster.build_ms", "ms"},
}

// traceMetrics come from the staged replay's spans.
var traceMetrics = []metricDef{
	{"trace.query.footprint_ms_per_step", "ms"},
	{"trace.dht.group_ms_per_step", "ms"},
	{"trace.stash.get_ms_per_step", "ms"},
	{"trace.stash.derive_ms_per_step", "ms"},
	{"trace.galileo.fetch_ms_per_step", "ms"},
	{"trace.stash.put_ms_per_step", "ms"},
	{"trace.cluster.merge_ms_per_step", "ms"},
	{"trace.stage_sum_ms_per_step", "ms"},
	{"cluster.overhead_ratio", "ratio"},
}

func perLayer() []metricDef {
	var all []metricDef
	all = append(all, demotedMetrics...)
	all = append(all, ladderMetrics...)
	all = append(all, countedMetrics...)
	return append(all, traceMetrics...)
}

// reading is one printed metric.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick renders the named metrics out of a run's values; a metric a run did
// not produce (cluster.update_block_us_p50 outside update_mix) reads 0.
func pick(defs []metricDef, values map[string]float64) map[string]reading {
	out := make(map[string]reading, len(defs))
	for _, d := range defs {
		out[d.name] = reading{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// specFile mirrors BENCHMARK.json.
type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the program runs from the root of the checkout, its tests from benchmark/).
func loadSpec() (*specFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s specFile
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}
