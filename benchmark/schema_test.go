package main

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the program must name the same workloads and metrics,
// with the same units, inside the limits the driver enforces.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %q breaks the naming limits", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %q [%s] breaks the naming limits", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer(), false)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// A run prints every metric BENCHMARK.json names for its trace mode, with
// its unit, and nothing else.
func TestRunPrintsTheSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	opt := options{seed: 3, seconds: 10, procs: 2, benchtime: "1x", scale: testScale}
	run := func(name string, traced bool, want []specMetric) {
		var out strings.Builder
		if err := single(&out, name, traced, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("%s: last line is not a result: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed", name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", name, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: %s not printed", name, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
			}
			if !traced && got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", name, m.Name, got.Value)
			}
		}
	}
	for _, w := range spec.Workloads {
		run(w.Name, false, spec.EndToEnd)
	}
	run("update_mix", true, spec.PerLayer)
}
