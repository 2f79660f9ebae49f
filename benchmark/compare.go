package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns what Python's statistics.quantiles(values, n=4) does (the
// exclusive method), so spreads here read like the ones the driver computes.
// It needs two values; one value has no spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func readRuns(path string) (*runFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// side gathers one file's runs of one workload.
type side struct {
	values            map[string][]float64
	attempted, failed int
}

func gather(f *runFile, workload string) side {
	s := side{values: map[string][]float64{}}
	for _, r := range f.Runs {
		if r.Workload != workload {
			continue
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return s
}

func (s side) failedRatio() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// compareFiles prints, per workload and end-to-end metric, how much worse the
// second file's median is than the first's, against the metric's bound in
// BENCHMARK.json. A pairing whose run-to-run spread (on either side) exceeds
// the bound is "unresolved": the runs cannot tell a regression from noise.
// The demoted metrics follow without a verdict. It reports whether a gated
// metric regressed or failed_ratio rose.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	perLayer := map[string]specMetric{}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m
	}
	regressed := false
	fmt.Fprintf(w, "%-15s %-20s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		sa, sb := gather(a, wl.Name), gather(b, wl.Name)
		if sa.attempted == 0 || sb.attempted == 0 {
			fmt.Fprintf(w, "%-15s missing from one side\n", wl.Name)
			regressed = true
			continue
		}
		row := func(m specMetric, gated bool) {
			va, vb := sa.values[m.Name], sb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-20s missing from one side\n", wl.Name, m.Name)
				regressed = regressed || gated
				return
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			// A zero baseline has no relative difference: any rise is
			// infinitely worse, no change is none.
			worse := 0.0
			switch {
			case ma != 0:
				worse = (mb - ma) / math.Abs(ma)
			case mb != 0:
				worse = math.Copysign(math.Inf(1), mb)
			}
			if m.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(va), spread(vb))
			verdict, bound := "ok", fmt.Sprintf("%6.1f%%", 100*m.Bound)
			switch {
			case !gated:
				verdict, bound = "not gated", "      -"
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-20s %12.6g %12.6g %+7.2f%% %7.2f%% %s  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*sp, bound, verdict)
		}
		for _, m := range spec.EndToEnd {
			row(m, true)
		}
		// The demoted metrics are shown for the reader; they have no bound.
		for _, d := range demotedMetrics {
			if m, ok := perLayer[d.name]; ok && d.name != "failed_ratio" {
				row(m, false)
			}
		}
		fa, fb := sa.failedRatio(), sb.failedRatio()
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-15s %-20s %12.6g %12.6g %34s\n", wl.Name, "failed_ratio", fa, fb, verdict)
	}
	return regressed, nil
}
