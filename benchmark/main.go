// Command benchmark is the repo's performance benchmark: four navigation
// workloads measured end to end on a metered cluster, a per-layer ladder, and
// a staged replay that says where a step's time goes. See README.md here and
// BENCHMARK.json at the root of the repo.
//
// One run of one workload (what BENCHMARK.json's command does):
//
//	bash benchmark/run.sh --workload explore_warm --seed 1 --seconds 10 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// gated end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Without --workload every workload runs, traced, and a table of every metric
// is printed; -out keeps the runs as JSON and -compare a.json b.json holds two
// such files against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// maxProcs caps GOMAXPROCS and with it the client count of sessions_evict.
const maxProcs = 4

// result is the line a single run ends with.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// runRecord is one run in an -out file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Metrics   map[string]reading `json:"metrics"`
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	Go         string             `json:"go"`
	NumCPU     int                `json:"nproc"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Seconds    int                `json:"seconds"`
	Runs       []runRecord        `json:"runs"`
	Ladder     map[string]reading `json:"ladder,omitempty"`
}

// options are the flags a run reads.
type options struct {
	seed     int64
	seconds  int
	procs    int
	traceOut string
	// benchtime is the testing.Benchmark budget of each ladder rung and
	// scale multiplies every step count; only tests set them below the
	// constants main passes.
	benchtime string
	scale     float64
}

// ladderBenchtime is long enough for every rung to repeat to a few per cent.
const ladderBenchtime = "100ms"

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and end with a result line; empty runs all four")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same queries")
		seconds  = flag.Int("seconds", 10, "length the measured phase is sized for (step counts scale with it)")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the staged replay's spans to this file, one JSON object per line")
		out      = flag.String("out", "", "without -workload: write every run to this JSON file")
		runs     = flag.Int("runs", 1, "without -workload: repeat each workload with seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two -out files (the two arguments) against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files, got %d", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *runs < 1 {
		fatal(fmt.Errorf("need -seconds >= 1, -trace 0 or 1, -runs >= 1"))
	}
	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)

	opt := options{seed: *seed, seconds: *seconds, procs: procs, traceOut: *traceOut, benchtime: ladderBenchtime, scale: 1}
	var err error
	if *workload != "" {
		err = single(os.Stdout, *workload, *trace == 1, opt)
	} else {
		err = all(os.Stdout, *runs, *out, opt)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// single is one run of one workload, ending with the result line.
func single(w io.Writer, name string, traced bool, opt options) error {
	p, err := newPlan(name, opt.seed, opt.seconds, opt.procs, opt.scale)
	if err != nil {
		return err
	}
	o, spans, err := runWorkload(p, traced)
	if err != nil {
		return err
	}
	report(o)
	defs := endToEnd
	if traced {
		ladder, err := runLadder(opt.benchtime)
		if err != nil {
			return err
		}
		for k, v := range ladder {
			o.metrics[k] = v
		}
		defs = perLayer()
		if opt.traceOut != "" {
			if err := spans.write(opt.traceOut); err != nil {
				return err
			}
		}
	}
	line, err := json.Marshal(result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   pick(defs, o.metrics),
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// report tells a person, on standard error, what a run did beyond its metrics.
func report(o *outcome) {
	fmt.Fprintf(os.Stderr, "%s seed %d: %d steps timed, %d failed, GOMAXPROCS %d\n",
		o.workload, o.seed, o.samples, o.failed, runtime.GOMAXPROCS(0))
	if o.truncated {
		fmt.Fprintln(os.Stderr, "  stopped at the time limit before the last step: per-step counters will not repeat")
	}
	if o.firstErr != nil {
		fmt.Fprintln(os.Stderr, "  first failure:", o.firstErr)
	}
}

// all runs every workload (traced) runs times, then the ladder, and prints
// every metric by name with its unit.
func all(w io.Writer, runs int, out string, opt options) error {
	doc := runFile{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: opt.procs, Seconds: opt.seconds}
	fmt.Fprintf(w, "%s, nproc %d, GOMAXPROCS %d, sized for %d s\n", doc.Go, doc.NumCPU, opt.procs, opt.seconds)
	var defs []metricDef
	for _, l := range [][]metricDef{endToEnd, demotedMetrics, countedMetrics, traceMetrics} {
		defs = append(defs, l...)
	}
	var spans spanLog
	failed := 0
	for _, wl := range workloads {
		for r := 0; r < runs; r++ {
			p, err := newPlan(wl.name, opt.seed+int64(r), opt.seconds, opt.procs, opt.scale)
			if err != nil {
				return err
			}
			o, sp, err := runWorkload(p, true)
			if err != nil {
				return err
			}
			report(o)
			failed += o.failed
			spans.spans = append(spans.spans, sp.spans...)
			rec := runRecord{Workload: wl.name, Seed: o.seed, Attempted: o.attempted, Failed: o.failed, Samples: o.samples, Metrics: pick(defs, o.metrics)}
			doc.Runs = append(doc.Runs, rec)
			fmt.Fprintf(w, "\n%s  seed %d  steps %d\n", wl.name, o.seed, o.attempted)
			printReadings(w, defs, rec.Metrics)
		}
	}
	ladder, err := runLadder(opt.benchtime)
	if err != nil {
		return err
	}
	doc.Ladder = pick(ladderMetrics, ladder)
	fmt.Fprintf(w, "\nladder  footprint %v\n", ladderBox)
	printReadings(w, ladderMetrics, doc.Ladder)
	if opt.traceOut != "" {
		if err := spans.write(opt.traceOut); err != nil {
			return err
		}
	}
	if out != "" {
		raw, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d steps failed", failed)
	}
	return nil
}

func printReadings(w io.Writer, defs []metricDef, m map[string]reading) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", d.name, m[d.name].Value, m[d.name].Unit)
	}
}
