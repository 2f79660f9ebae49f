package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"stash/internal/cluster"
	"stash/internal/oracle"
	"stash/internal/query"
	"stash/internal/simnet"
)

// env is one cluster under test with the handles the harness reads.
type env struct {
	c     *cluster.Cluster
	meter *simnet.Meter
	orc   *oracle.Oracle
}

// newEnv builds and starts a cluster from cluster.DefaultConfig with an
// accounting-only Meter: wall time is then software time alone, and the
// modelled disk and LAN cost is the Meter's Elapsed delta.
func newEnv(capacity int) (*env, error) {
	cfg := cluster.DefaultConfig()
	m := simnet.NewMeter()
	cfg.Sleeper = m
	if capacity > 0 {
		sc := *cfg.Stash
		sc.Capacity = capacity
		cfg.Stash = &sc
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	c.Start()
	return &env{c: c, meter: m, orc: oracle.ForCluster(c)}, nil
}

// quiesceTimeout bounds how long a step may wait for the population pool.
const quiesceTimeout = 5 * time.Second

// quiesce waits until every disk-fetched cell has been handed to the cache:
// the population workers run off the response path, so without this a "warm"
// repeat can race them and read disk again.
func quiesce(c *cluster.Cluster) error {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		s := c.TotalStats()
		if s.PopulatedCells == s.DiskCells {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("quiesce: %d of %d disk cells populated after %v", s.PopulatedCells, s.DiskCells, quiesceTimeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// usage is the process-wide resource reading the accounting works in deltas of.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readUsage samples wall clock, user+system CPU (getrusage) and the runtime's
// cumulative allocation counters (the figures MemStats.Mallocs and TotalAlloc
// report, read without stopping the world).
func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(allocSamples))
	copy(s, allocSamples)
	metrics.Read(s)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: s[0].Value.Uint64(),
		bytes:   s[1].Value.Uint64(),
	}
}

func (u usage) sub(o usage) usageDelta {
	return usageDelta{
		wall:    u.wall.Sub(o.wall),
		cpu:     u.cpu - o.cpu,
		mallocs: float64(u.mallocs - o.mallocs),
		bytes:   float64(u.bytes - o.bytes),
	}
}

type usageDelta struct {
	wall, cpu      time.Duration
	mallocs, bytes float64
}

func (d *usageDelta) add(o usageDelta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.mallocs += o.mallocs
	d.bytes += o.bytes
}

// account meters the measured phase and lets a single client step outside
// it: untimed(f) subtracts f's wall, CPU and allocations from the phase. Only
// the one client of a single-client workload may call it, right after
// quiesce, when nothing else in the process is working; with several clients
// the checks wait until the phase is over (see drive).
type account struct {
	start    usage
	excluded usageDelta
}

func (a *account) untimed(f func()) {
	before := readUsage()
	f()
	a.excluded.add(readUsage().sub(before))
}

func (a *account) total() usageDelta {
	d := readUsage().sub(a.start)
	d.wall -= a.excluded.wall
	d.cpu -= a.excluded.cpu
	d.mallocs -= a.excluded.mallocs
	d.bytes -= a.excluded.bytes
	return d
}

// clientLog is what one client's loop records.
type clientLog struct {
	stepMs    []float64
	updateUs  []float64
	busy      time.Duration // step + update latencies
	attempted int
	failed    int
	firstErr  error
	// pending holds the answers of a multi-client workload's checked steps
	// until the phase is over.
	pending []answer
}

type answer struct {
	q   query.Query
	res query.Result
}

func (l *clientLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// drive runs one client's steps closed-loop. With acct == nil it is the
// warm-up: nothing is recorded or checked. A single-client workload quiesces
// after any step that touched disk, so an analyst's think time is at least the
// population time and the counters repeat exactly, and checks a marked step on
// the spot, untimed (update_mix must: the next update changes the answer).
// With several clients the marked answers are kept and checked by the caller
// after the phase: nothing is ingested there, so they stay valid, and no client
// ever waits for another's check. quiesce itself is not subtracted: it only
// sleeps and polls, and the population work it waits for belongs to the step
// (cpu_ms_per_step and allocs_per_step include it by definition).
func drive(e *env, steps []step, single bool, acct *account, deadline time.Time) *clientLog {
	log := &clientLog{}
	cl := e.c.Client()
	disk := e.c.TotalStats().DiskCells
	for _, st := range steps {
		if acct != nil && time.Now().After(deadline) {
			break
		}
		if st.update != nil {
			t := time.Now()
			e.c.UpdateBlock(st.update.Prefix, st.update.Day)
			d := time.Since(t)
			log.busy += d
			log.updateUs = append(log.updateUs, float64(d.Nanoseconds())/1e3)
		}
		t := time.Now()
		res, err := cl.Query(st.q)
		d := time.Since(t)
		log.attempted++
		log.busy += d
		log.stepMs = append(log.stepMs, float64(d.Nanoseconds())/1e6)
		if err != nil {
			log.fail(fmt.Errorf("query %v: %w", st.q, err))
			continue
		}
		if single {
			if now := e.c.TotalStats().DiskCells; now != disk {
				disk = now
				if err := quiesce(e.c); err != nil {
					log.fail(err)
					continue
				}
			}
		}
		switch {
		case acct == nil || !st.check:
		case single:
			acct.untimed(func() {
				if err := checkOracle(e.orc, st.q, res); err != nil {
					log.fail(err)
				}
			})
		default:
			log.pending = append(log.pending, answer{st.q, res})
		}
	}
	return log
}

func checkOracle(o *oracle.Oracle, q query.Query, got query.Result) error {
	want, err := o.Query(q)
	if err != nil {
		return fmt.Errorf("oracle %v: %w", q, err)
	}
	if diffs := oracle.Check(got, want); len(diffs) > 0 {
		return fmt.Errorf("%v differs from the oracle:\n%s", q, oracle.FormatDiffs(diffs, 5))
	}
	return nil
}

// driveAll runs every client of the plan over steps [from, to) of its
// sequence and waits for all of them.
func driveAll(e *env, p *plan, measured bool, acct *account, deadline time.Time) []*clientLog {
	logs := make([]*clientLog, len(p.clients))
	var wg sync.WaitGroup
	for i, steps := range p.clients {
		part := steps[:p.warm]
		if measured {
			part = steps[p.warm:]
		}
		wg.Add(1)
		go func(i int, part []step) {
			defer wg.Done()
			logs[i] = drive(e, part, !p.info.multi, acct, deadline)
		}(i, part)
	}
	wg.Wait()
	return logs
}

// setUp brings a fresh cluster to the state the measured phase starts from:
// build and start it, pre-warm (the home box, where the workload has one),
// run the warm-up steps, quiesce. It returns how long that took and how long
// the constructor alone took.
func setUp(p *plan) (e *env, total, build time.Duration, err error) {
	t0 := time.Now()
	if e, err = newEnv(p.info.capacity); err != nil {
		return nil, 0, 0, err
	}
	defer func() {
		if err != nil {
			e.c.Stop()
		}
	}()
	build = time.Since(t0)
	cl := e.c.Client()
	for _, q := range p.prewarm {
		if _, err = cl.Query(q); err != nil {
			return nil, 0, 0, fmt.Errorf("pre-warm %v: %w", q, err)
		}
		if err = quiesce(e.c); err != nil {
			return nil, 0, 0, err
		}
	}
	for _, log := range driveAll(e, p, false, nil, time.Time{}) {
		if err = log.firstErr; err != nil {
			return nil, 0, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err = quiesce(e.c); err != nil {
		return nil, 0, 0, err
	}
	return e, time.Since(t0), build, nil
}

// runLimit cuts a measured phase short (and says so) on a machine so slow that
// the run would not end within the driver's limit; per-step counters of such
// a run do not repeat.
const runLimit = 90 * time.Second

// setUps is how many times a run sets up; setup_s is their median.
const setUps = 3

// counters is the public-Stats reading the counted metrics are deltas of.
type counters struct {
	node      cluster.NodeStats
	evictions int64
	points    int64
	charged   time.Duration
	resident  int
}

func readCounters(e *env) counters {
	k := counters{node: e.c.TotalStats(), charged: e.meter.Elapsed()}
	for _, n := range e.c.Nodes() {
		k.evictions += n.Graph().Stats().Evictions
		k.points += n.Store().PointsScanned()
		k.resident += n.Graph().Len()
	}
	return k
}

// outcome is one run of one workload: every metric by name, plus the
// correctness tally the result line carries.
type outcome struct {
	workload  string
	seed      int64
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
	truncated bool
	// samples is the number of timed steps behind the percentiles.
	samples int
}

// runWorkload sets up (setUps times, keeping the last cluster), measures the
// plan's steps and, with traced set, replays the first tenth stage by stage
// on a second cluster.
func runWorkload(p *plan, traced bool) (*outcome, *spanLog, error) {
	out := &outcome{workload: p.info.name, seed: p.seed, metrics: map[string]float64{}}
	var e *env
	var setupS, buildMs []float64
	for i := 0; i < setUps; i++ {
		if e != nil {
			e.c.Stop()
			e = nil
		}
		runtime.GC()
		var total, build time.Duration
		var err error
		e, total, build, err = setUp(p)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, total.Seconds())
		buildMs = append(buildMs, float64(build.Nanoseconds())/1e6)
	}
	defer func() { e.c.Stop() }()
	runtime.GC()

	before := readCounters(e)
	acct := &account{start: readUsage()}
	// The step count is fixed; the deadline only keeps a run on a much
	// slower machine inside the driver's 180 s limit.
	deadline := time.Now().Add(runLimit)
	logs := driveAll(e, p, true, acct, deadline)
	used := acct.total()
	if err := quiesce(e.c); err != nil {
		out.failed++
		out.firstErr = err
	}
	after := readCounters(e)
	for _, l := range logs {
		for _, a := range l.pending {
			if err := checkOracle(e.orc, a.q, a.res); err != nil {
				l.fail(err)
			}
		}
		l.pending = nil
	}
	// The oracle memoises every block it has generated; that is the
	// harness's memory, not the program's.
	e.orc = nil
	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, and how full the pools are is an accident of timing.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var stepMs, updateUs, head []float64
	var busy time.Duration
	for _, l := range logs {
		stepMs = append(stepMs, l.stepMs...)
		if n := p.replaySteps(); n <= len(l.stepMs) {
			head = append(head, l.stepMs[:n]...)
		}
		updateUs = append(updateUs, l.updateUs...)
		busy += l.busy
		out.attempted += l.attempted
		out.failed += l.failed
		if out.firstErr == nil {
			out.firstErr = l.firstErr
		}
	}
	steps := float64(out.attempted)
	if out.attempted < p.measuredSteps() {
		out.truncated = true
	}
	if out.attempted == 0 {
		return nil, nil, fmt.Errorf("%s: no step ran", p.info.name)
	}
	sort.Float64s(stepMs)
	sort.Float64s(updateUs)
	out.samples = len(stepMs)

	// Timed wall: one client's think-free time is the sum of its step (and
	// update) latencies; with several clients it is the phase's wall, less
	// the untimed checks.
	wall := busy
	if p.info.multi {
		wall = used.wall
	}
	m := out.metrics
	m["setup_s"] = median(setupS)
	m["step_ms_p50"] = quantile(stepMs, 0.50)
	m["step_ms_p95"] = quantile(stepMs, 0.95)
	m["steps_per_s"] = steps / wall.Seconds()
	m["cpu_ms_per_step"] = float64(used.cpu.Nanoseconds()) / 1e6 / steps
	m["charged_ms_per_step"] = float64((after.charged - before.charged).Nanoseconds()) / 1e6 / steps
	m["allocs_per_step"] = used.mallocs / steps
	m["alloc_kb_per_step"] = used.bytes / 1024 / steps
	m["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	d := func(a, b int64) float64 { return float64(a-b) / steps }
	hits, misses := after.node.CacheHits-before.node.CacheHits, after.node.CacheMisses-before.node.CacheMisses
	m["stash.hit_ratio"] = float64(hits) / math.Max(1, float64(hits+misses))
	var keys int
	for _, c := range p.clients {
		for _, st := range c[p.warm:] {
			keys += st.keys
		}
	}
	m["stash.derived_per_step"] = d(after.node.Derived, before.node.Derived)
	m["stash.evictions_per_step"] = d(after.evictions, before.evictions)
	m["stash.resident_cells"] = float64(after.resident)
	m["blocks_read_per_step"] = d(after.node.BlocksRead, before.node.BlocksRead)
	m["galileo.disk_cells_per_step"] = d(after.node.DiskCells, before.node.DiskCells)
	m["galileo.points_scanned_per_step"] = d(after.points, before.points)
	m["cluster.keys_per_step"] = float64(keys) / float64(p.measuredSteps())
	m["cluster.fanout_nodes_per_step"] = d(after.node.Processed, before.node.Processed)
	m["cluster.queue_peak"] = float64(after.node.QueuePeak)
	m["cluster.populate_ms_per_step"] = float64((after.node.PopulationTime - before.node.PopulationTime).Nanoseconds()) / 1e6 / steps
	m["cluster.populated_cells_per_step"] = d(after.node.PopulatedCells, before.node.PopulatedCells)
	m["cluster.step_ms_p99"] = quantile(stepMs, 0.99)
	m["cluster.update_block_us_p50"] = quantile(updateUs, 0.50)
	m["cluster.build_ms"] = median(buildMs)

	var spans *spanLog
	if traced {
		// The ratio compares like with like: the replayed steps' own
		// untraced latencies over their stage sum.
		var stageSum float64
		var err error
		if spans, stageSum, err = replay(p, out); err != nil {
			return nil, nil, err
		}
		if stageSum > 0 {
			m["cluster.overhead_ratio"] = mean(head) / stageSum
		}
	}
	m["failed_ratio"] = float64(out.failed) / float64(out.attempted)
	return out, spans, nil
}

// quantile reads the q-quantile of sorted values (nearest rank); 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, m, _ := quartiles(v)
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
