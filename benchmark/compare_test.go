package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compared are the metrics -compare shows: the gated ones and the demoted.
var compared = append(append([]metricDef(nil), endToEnd...), demotedMetrics...)

// writeRuns files three runs per workload whose compared metrics all read
// 100 x factor[metric] (1 when absent, 0 when negative), jittered by 0.1 % so
// there is a spread.
func writeRuns(t *testing.T, path string, factor map[string]float64, failed int) {
	t.Helper()
	var f runFile
	for _, w := range workloads {
		for r := 0; r < 3; r++ {
			vals := map[string]float64{}
			for _, d := range compared {
				k := factor[d.name]
				if k == 0 {
					k = 1
				} else if k < 0 {
					k = 0
				}
				vals[d.name] = 100 * k * (1 + 0.001*float64(r))
			}
			f.Runs = append(f.Runs, runRecord{Workload: w.name, Seed: int64(r), Attempted: 1000, Failed: failed, Metrics: pick(compared, vals)})
		}
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeRuns(t, base, nil, 0)
	cases := []struct {
		name      string
		factor    map[string]float64
		failed    int
		zero      string // this metric reads 0 in the base file
		regressed bool
		want      string
	}{
		{name: "same", want: "ok"},
		{name: "more", factor: map[string]float64{"allocs_per_step": 1.5}, regressed: true, want: "REGRESSION"},
		{name: "less", factor: map[string]float64{"allocs_per_step": 0.5}},
		// The demoted times are shown, never judged.
		{name: "slower", factor: map[string]float64{"step_ms_p50": 1.5, "steps_per_s": 0.5}, want: "not gated"},
		// Rising from a zero baseline is a regression, not a NaN.
		{name: "from-zero", factor: map[string]float64{"charged_ms_per_step": 1}, zero: "charged_ms_per_step", regressed: true, want: "+Inf"},
		{name: "failing", failed: 1, regressed: true, want: "REGRESSION"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := base
			if c.zero != "" {
				base = filepath.Join(dir, c.name+"-base.json")
				writeRuns(t, base, map[string]float64{c.zero: -1}, 0)
			}
			other := filepath.Join(dir, c.name+".json")
			writeRuns(t, other, c.factor, c.failed)
			var out strings.Builder
			regressed, err := compareFiles(&out, base, other)
			if err != nil {
				t.Fatal(err)
			}
			if regressed != c.regressed {
				t.Errorf("regressed = %v, want %v\n%s", regressed, c.regressed, out.String())
			}
			if c.want != "" && !strings.Contains(out.String(), c.want) {
				t.Errorf("no %q in\n%s", c.want, out.String())
			}
		})
	}
}

// A pairing whose runs spread wider than the bound is reported as unresolved,
// not as a regression and not as unchanged.
func TestCompareUnresolved(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	noisy := func(path string, k float64) {
		var f runFile
		for _, w := range workloads {
			for r := 0; r < 4; r++ {
				vals := map[string]float64{}
				for _, d := range endToEnd {
					vals[d.name] = 100 * k * (1 + 0.4*float64(r))
				}
				f.Runs = append(f.Runs, runRecord{Workload: w.name, Attempted: 10, Metrics: pick(endToEnd, vals)})
			}
		}
		raw, _ := json.Marshal(f)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	noisy(a, 1)
	noisy(b, 2)
	var out strings.Builder
	regressed, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if regressed || !strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("regressed = %v\n%s", regressed, out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}
