// Package difftest is the randomized differential harness: seeded workload
// sessions of OLAP navigation steps run against real clusters built across a
// matrix of feature configurations — lock striping, request coalescing,
// serve-side singleflight, hotspot replication, fault injection, simulated
// ingest — and every response is cross-checked cell-by-cell against the
// sequential oracle (package oracle). Complete responses must match the
// oracle exactly; partial responses under faults must be subsets (never
// wrong, only missing). On a mismatch the failing session is shrunk with a
// delta-debugging pass to a minimal reproducing step list and reported with
// the seed that regenerates it.
package difftest

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"stash/internal/cluster"
	"stash/internal/dht"
	"stash/internal/galileo"
	"stash/internal/geohash"
	"stash/internal/oracle"
	"stash/internal/query"
	"stash/internal/replication"
	"stash/internal/simnet"
	"stash/internal/stash"
	"stash/internal/temporal"
)

// Config selects one cluster feature combination for a differential run.
type Config struct {
	// Name identifies the configuration in reports and seeds the workload
	// (different configs get different sessions on purpose: more coverage).
	Name string
	// Tune mutates the base cluster configuration for this run.
	Tune func(cfg *cluster.Config)
	// Faults plays a seeded fault schedule during the run. Query errors are
	// tolerated, partial results are held to subset semantics, and the
	// failing session is not shrunk (fault timing is wall-clock dependent).
	Faults bool
	// Updates interleaves simulated ingest (UpdateBlock: generator bump +
	// cluster-wide invalidation) between query steps. Forces Sequential.
	Updates bool
	// Churn drives online membership changes (node joins and leaves, each a
	// full epoch flip with warm handoff) while the sessions run. Queries that
	// exhaust their epoch retries are tolerated like fault errors; every
	// returned result is still held to the oracle contract, and the failing
	// session is not shrunk (flip timing is wall-clock dependent).
	Churn bool
	// Sequential runs a single session instead of concurrent ones.
	Sequential bool
}

// Matrix returns the standard configuration matrix: every production feature
// toggle the serve path branches on, alone and combined.
func Matrix() []Config {
	stripes := func(n int) func(*cluster.Config) {
		return func(cfg *cluster.Config) {
			sc := stash.DefaultConfig()
			sc.Stripes = n
			cfg.Stash = &sc
		}
	}
	hotRepl := func(cfg *cluster.Config) {
		rc := replication.DefaultConfig()
		rc.QueueThreshold = 1 // trip handoffs at test scale
		rc.Cooldown = time.Millisecond
		rc.RerouteProbability = 0.5
		cfg.Replication = rc
	}
	return []Config{
		{Name: "stripes-1", Tune: stripes(1)},
		{Name: "stripes-16", Tune: stripes(16)},
		{Name: "no-stash", Tune: func(cfg *cluster.Config) { cfg.Stash = nil }},
		{Name: "coalesce", Tune: func(cfg *cluster.Config) {
			cfg.CoalesceWindow = cluster.DefaultCoalesceWindow
		}},
		{Name: "singleflight", Tune: func(cfg *cluster.Config) {
			cfg.ServeSingleflight = true
		}},
		{Name: "coalesce-singleflight", Tune: func(cfg *cluster.Config) {
			cfg.CoalesceWindow = cluster.DefaultCoalesceWindow
			cfg.ServeSingleflight = true
		}},
		{Name: "replication", Tune: hotRepl},
		{Name: "membership-churn", Churn: true},
		{Name: "columnar+parallel-fanin", Tune: func(cfg *cluster.Config) {
			// Wide tournament bound plus the batching features that feed it,
			// so pooled-arena recycling and concurrent pairwise merges run hot
			// under the oracle's eye.
			cfg.FanInWorkers = 8
			cfg.CoalesceWindow = cluster.DefaultCoalesceWindow
			cfg.ServeSingleflight = true
		}},
		{Name: "serial-fanin", Tune: func(cfg *cluster.Config) {
			// Legacy serial reply fold: pins the baseline the tournament is
			// benchmarked against to the same oracle contract.
			cfg.FanInWorkers = -1
		}},
		{Name: "updates", Updates: true, Sequential: true},
		{Name: "faults-partial", Faults: true, Tune: func(cfg *cluster.Config) {
			cfg.Resilience = fastResilience(true)
		}},
		{Name: "faults-strict", Faults: true, Tune: func(cfg *cluster.Config) {
			cfg.Resilience = fastResilience(false)
		}},
		{Name: "kitchen-sink", Tune: func(cfg *cluster.Config) {
			stripes(4)(cfg)
			hotRepl(cfg)
			cfg.CoalesceWindow = cluster.DefaultCoalesceWindow
			cfg.ServeSingleflight = true
		}},
	}
}

// fastResilience is the coordinator failure handling used under injected
// faults, scaled so a crashed-node wait costs milliseconds in tests.
func fastResilience(partial bool) cluster.ResilienceConfig {
	return cluster.ResilienceConfig{
		RequestTimeout:  20 * time.Millisecond,
		Retries:         1,
		RetryBackoff:    time.Millisecond,
		AllowPartial:    partial,
		HelperReroute:   partial,
		ScatterFallback: partial,
	}
}

// Options sizes a differential run.
type Options struct {
	// Seed drives everything: workloads, fault schedules, update picks.
	// Re-running with the same seed regenerates the identical run (modulo
	// goroutine interleaving, which is the point of the exercise).
	Seed uint64
	// Nodes / PointsPerBlock size the cluster and dataset.
	Nodes          int
	PointsPerBlock int
	// Steps is the number of query steps per session.
	Steps int
	// Sessions is the number of concurrent navigation sessions.
	Sessions int
	// MaxFootprint caps per-query footprint cells; the generator rolls up
	// or re-bases any step that would exceed it.
	MaxFootprint int
	// Mutate, when set, corrupts responses before cross-checking — the
	// mutation-smoke hook proving the harness detects seeded bugs.
	Mutate func(q query.Query, r *query.Result)
	// NoShrink disables delta-debugging of a failing session.
	NoShrink bool
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Nodes == 0 {
		o.Nodes = 5
	}
	if o.PointsPerBlock == 0 {
		o.PointsPerBlock = 96
	}
	if o.Steps == 0 {
		o.Steps = 200
	}
	if o.Sessions == 0 {
		o.Sessions = 4
	}
	if o.MaxFootprint == 0 {
		o.MaxFootprint = 512
	}
	return o
}

// Step is one session action: an ingest update (Update non-nil) or a query.
type Step struct {
	Op     string // "base", "pan", "drill", "rollup", ... or "update"
	Q      query.Query
	Update *BlockUpdate
}

func (s Step) String() string {
	if s.Update != nil {
		return fmt.Sprintf("update %s/%v", s.Update.Prefix, s.Update.Day)
	}
	return fmt.Sprintf("%-8s %v", s.Op, s.Q)
}

// BlockUpdate names one simulated-ingest bump.
type BlockUpdate struct {
	Prefix string
	Day    temporal.Label
}

// Stats summarizes one differential run.
type Stats struct {
	Queries  int   // query steps executed
	Cells    int64 // result cells cross-checked against the oracle
	Complete int   // responses with complete coverage (exact-checked)
	Partial  int   // responses with partial coverage (subset-checked)
	Errors   int   // tolerated query errors (fault configs only)
	Updates  int   // ingest bumps applied
	Repeats  int   // metamorphic repeat-identity checks performed
	PanPairs int   // pan footprint-continuity checks performed
	Flips    int   // membership epoch flips driven (churn configs only)
}

func (s *Stats) add(o Stats) {
	s.Queries += o.Queries
	s.Cells += o.Cells
	s.Complete += o.Complete
	s.Partial += o.Partial
	s.Errors += o.Errors
	s.Updates += o.Updates
	s.Repeats += o.Repeats
	s.PanPairs += o.PanPairs
	s.Flips += o.Flips
}

// Failure is one detected divergence, with everything needed to reproduce
// it: config, seed, session, step, and (when shrinking ran) the minimal
// step list that still fails.
type Failure struct {
	Config  string
	Seed    uint64
	Session int
	Step    int
	Kind    string // "diff", "error", "repeat-identity", "pan-continuity", "oracle-error"
	Query   query.Query
	Diffs   []oracle.Diff
	Err     error
	Repro   []Step
}

func (f *Failure) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "difftest %s: %s at session %d step %d (seed %d)\n",
		f.Config, f.Kind, f.Session, f.Step, f.Seed)
	fmt.Fprintf(&b, "  query: %v\n", f.Query)
	if f.Err != nil {
		fmt.Fprintf(&b, "  error: %v\n", f.Err)
	}
	if len(f.Diffs) > 0 {
		fmt.Fprintf(&b, "  %d cell diffs:\n%s", len(f.Diffs), oracle.FormatDiffs(f.Diffs, 8))
	}
	if len(f.Repro) > 0 {
		fmt.Fprintf(&b, "  minimal repro (%d steps, replay with seed %d):\n", len(f.Repro), f.Seed)
		for i, s := range f.Repro {
			fmt.Fprintf(&b, "    %2d. %v\n", i, s)
		}
	}
	return b.String()
}

// Run executes one differential run: build the cluster for cfg, generate
// opts.Sessions deterministic workload sessions, run them concurrently with
// oracle cross-checking, and return aggregate stats plus the first failure
// (shrunk to a minimal repro when possible).
func Run(cfg Config, opts Options) (Stats, *Failure) {
	opts = opts.withDefaults()
	sessions := opts.Sessions
	if cfg.Sequential {
		sessions = 1
	}
	all := make([][]Step, sessions)
	for i := range all {
		all[i] = GenSession(cfg, i, opts)
	}

	c := buildCluster(cfg, opts)
	defer c.Stop()
	o := oracle.ForCluster(c)

	// Churn configs run a driver alongside the sessions: alternate joins and
	// leaves, each a full three-phase warm handoff plus epoch flip, so the
	// workload crosses many ownership changes mid-query.
	stopChurn := make(chan struct{})
	var churnDone chan int
	if cfg.Churn {
		churnDone = make(chan int, 1)
		go func() {
			flips := 0
			var joined []dht.NodeID
			for i := 0; ; i++ {
				select {
				case <-stopChurn:
					churnDone <- flips
					return
				case <-time.After(25 * time.Millisecond):
				}
				if i%2 == 0 {
					if id, err := c.Join(); err == nil {
						joined = append(joined, id)
						flips++
					}
				} else if len(joined) > 0 {
					if err := c.Leave(joined[0]); err == nil {
						joined = joined[1:]
						flips++
					}
				}
			}
		}()
	}

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		stats Stats
		first *Failure
	)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, fail := runSession(c, o, cfg, opts, i, all[i])
			mu.Lock()
			defer mu.Unlock()
			stats.add(st)
			if fail != nil && first == nil {
				first = fail
			}
		}(i)
	}
	wg.Wait()
	if cfg.Churn {
		close(stopChurn)
		stats.Flips = <-churnDone
	}

	if first != nil && !cfg.Faults && !cfg.Churn && !opts.NoShrink {
		first.Repro = Shrink(cfg, opts, all[first.Session], first.Step)
	}
	return stats, first
}

// buildCluster constructs the system under test for one configuration.
func buildCluster(cfg Config, opts Options) *cluster.Cluster {
	cc := cluster.DefaultConfig()
	cc.Nodes = opts.Nodes
	cc.Seed = opts.Seed
	cc.PointsPerBlock = opts.PointsPerBlock
	if cfg.Faults {
		cc.Faults = simnet.NewFaultPlan(int64(opts.Seed))
	}
	if cfg.Tune != nil {
		cfg.Tune(&cc)
	}
	c, err := cluster.New(cc)
	if err != nil {
		panic(fmt.Sprintf("difftest: cluster build for %q: %v", cfg.Name, err))
	}
	c.Start()
	return c
}

// sessionSeed derives a session's workload seed from the run seed, config
// name, and session index, so every (config, session) pair explores a
// different deterministic trajectory.
func sessionSeed(seed uint64, name string, session int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, name, session)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// GenSession deterministically generates one session's step list: a random
// base query followed by a weighted walk of the OLAP navigation operators
// (pan, drill-down, roll-up — spatial and temporal — dice, slice, repeat),
// re-based whenever a step would exceed the footprint cap. Updates configs
// interleave ingest bumps. Pure function of (opts.Seed, cfg.Name, session).
func GenSession(cfg Config, session int, opts Options) []Step {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(sessionSeed(opts.Seed, cfg.Name, session)))
	steps := make([]Step, 0, opts.Steps+opts.Steps/16)
	q := baseQuery(rng)
	steps = append(steps, Step{Op: "base", Q: q})
	for queries := 1; queries < opts.Steps; queries++ {
		if cfg.Updates && queries%16 == 0 {
			steps = append(steps, Step{Op: "update", Update: randUpdate(rng)})
		}
		var op string
		q, op = nextQuery(rng, q, opts.MaxFootprint)
		steps = append(steps, Step{Op: op, Q: q})
	}
	return steps
}

// baseQuery picks a fresh viewport: a 1–3 degree box over the south-central
// US (dense synthetic data, shared across sessions so caches actually
// collide) and 1–3 days of February 2015 at Day resolution.
func baseQuery(rng *rand.Rand) query.Query {
	h := 0.8 + rng.Float64()*1.6
	w := 0.8 + rng.Float64()*2.2
	lat := 30 + rng.Float64()*8
	lon := -104 + rng.Float64()*12
	start := time.Date(2015, 2, 1+rng.Intn(8), 0, 0, 0, 0, time.UTC)
	return query.Query{
		Box:         geohash.Box{MinLat: lat, MaxLat: lat + h, MinLon: lon, MaxLon: lon + w},
		Time:        temporal.Range{Start: start, End: start.AddDate(0, 0, 1+rng.Intn(3))},
		SpatialRes:  3 + rng.Intn(2),
		TemporalRes: temporal.Day,
	}
}

// randUpdate picks a block inside the workload region to bump.
func randUpdate(rng *rand.Rand) *BlockUpdate {
	lat := 30 + rng.Float64()*8
	lon := -104 + rng.Float64()*12
	day := temporal.At(time.Date(2015, 2, 1+rng.Intn(10), 0, 0, 0, 0, time.UTC), temporal.Day)
	return &BlockUpdate{
		Prefix: geohash.Encode(lat, lon, galileo.DefaultBlockPrefixLen),
		Day:    day,
	}
}

// nextQuery advances the navigation walk by one operator, keeping the query
// valid and its footprint under the cap. "repeat" re-issues the current
// query verbatim — the natural trigger for the warm-cache repeat-identity
// metamorphic check.
func nextQuery(rng *rand.Rand, q query.Query, maxFootprint int) (query.Query, string) {
	cand, op := applyOp(rng, q)
	if admissible(cand, maxFootprint) {
		return cand, op
	}
	// Too wide or invalid: coarsen before giving up on the trajectory.
	if up, ok := cand.RollUp(); ok && admissible(up, maxFootprint) {
		return up, "rollup"
	}
	if up, ok := cand.RollUpTemporal(); ok && admissible(up, maxFootprint) {
		return up, "rollup-t"
	}
	return baseQuery(rng), "base"
}

func applyOp(rng *rand.Rand, q query.Query) (query.Query, string) {
	switch rng.Intn(12) {
	case 0, 1, 2:
		d := geohash.Direction(rng.Intn(8))
		return q.Pan(d, 0.2+rng.Float64()*0.6), "pan"
	case 3:
		if nq, ok := q.DrillDown(); ok {
			return nq, "drill"
		}
	case 4:
		if nq, ok := q.RollUp(); ok {
			return nq, "rollup"
		}
	case 5:
		if nq, ok := q.DrillDownTemporal(); ok {
			return nq, "drill-t"
		}
	case 6:
		if nq, ok := q.RollUpTemporal(); ok {
			return nq, "rollup-t"
		}
	case 7:
		return q.DiceShrink(0.2 + rng.Float64()*0.3), "shrink"
	case 8:
		return q.DiceExpand(0.2 + rng.Float64()*0.3), "expand"
	case 9: // slice to one covered temporal label
		if labels, err := q.Time.Cover(q.TemporalRes); err == nil && len(labels) > 1 {
			if nq, err := q.SliceTime(labels[rng.Intn(len(labels))]); err == nil {
				return nq, "slice"
			}
		}
	case 10, 11:
		return q, "repeat"
	}
	return q, "repeat"
}

// admissible bounds a candidate step. Besides validity and the footprint
// cap, it pins the walk to block-friendly resolutions: a cell coarser than
// the block prefix (spatial res < 3) or a Year label covers an enormous set
// of (prefix, day) blocks — a single such query forces both the oracle and
// the cluster's cold scan through hundreds of thousands of generated blocks,
// which bounds nothing. The footprint cap counts cells; this bounds blocks.
func admissible(q query.Query, maxFootprint int) bool {
	if q.SpatialRes < 3 || q.SpatialRes > 8 {
		return false
	}
	if q.TemporalRes == temporal.Year {
		return false
	}
	if err := q.Validate(); err != nil {
		return false
	}
	n, err := q.FootprintCount()
	return err == nil && n <= maxFootprint
}

// seen is one prior complete response retained for metamorphic checks.
type seenResult struct {
	q   query.Query
	res query.Result
	gen int // update generation: results across an ingest bump differ legally
}

// runSession replays one step list against the live cluster, cross-checking
// every response. Session 0 additionally owns the fault schedule (fault
// configs) so events are applied exactly once.
func runSession(c *cluster.Cluster, o *oracle.Oracle, cfg Config, opts Options, session int, steps []Step) (Stats, *Failure) {
	var (
		stats   Stats
		cl      = c.Client()
		history []seenResult
		gen     int
		prev    *seenResult // previous step's complete response, for pan continuity
		prevOp  string
	)
	var schedule []simnet.ScheduledFault
	next := 0
	if cfg.Faults && session == 0 {
		schedule = simnet.GenerateFaultSchedule(int64(opts.Seed), opts.Nodes, len(steps), 8)
		defer c.Faults().Reset()
	}

	for i, step := range steps {
		for next < len(schedule) && schedule[next].Step <= i {
			c.Faults().Apply(schedule[next])
			next++
		}
		if step.Update != nil {
			settle(c)
			c.UpdateBlock(step.Update.Prefix, step.Update.Day)
			gen++
			stats.Updates++
			prev = nil
			continue
		}
		stats.Queries++
		got, err := cl.Query(step.Q)
		if err != nil {
			if cfg.Faults || cfg.Churn {
				stats.Errors++
				prev = nil
				continue
			}
			return stats, &Failure{Config: cfg.Name, Seed: opts.Seed, Session: session,
				Step: i, Kind: "error", Query: step.Q, Err: err}
		}
		if opts.Mutate != nil {
			opts.Mutate(step.Q, &got)
		}
		want, err := o.Query(step.Q)
		if err != nil {
			return stats, &Failure{Config: cfg.Name, Seed: opts.Seed, Session: session,
				Step: i, Kind: "oracle-error", Query: step.Q, Err: err}
		}
		stats.Cells += int64(got.Len())
		if diffs := oracle.Check(got, want); len(diffs) > 0 {
			return stats, &Failure{Config: cfg.Name, Seed: opts.Seed, Session: session,
				Step: i, Kind: "diff", Query: step.Q, Diffs: diffs}
		}

		if !got.Coverage.Complete() {
			stats.Partial++
			prev = nil
			continue
		}
		stats.Complete++

		// Metamorphic repeat identity: the same query issued again in the
		// same data generation — now answered from cache and derivation
		// instead of disk — must return the identical result.
		for j := len(history) - 1; j >= 0; j-- {
			h := history[j]
			if h.gen == gen && h.q.Equal(step.Q) {
				stats.Repeats++
				if diffs := oracle.Compare(got, h.res); len(diffs) > 0 {
					return stats, &Failure{Config: cfg.Name, Seed: opts.Seed, Session: session,
						Step: i, Kind: "repeat-identity", Query: step.Q, Diffs: diffs}
				}
				break
			}
		}

		// Pan footprint continuity: cells shared between consecutive pan
		// viewports must carry identical aggregates in both responses.
		if step.Op == "pan" && prev != nil && prevOp != "update" {
			stats.PanPairs++
			if diffs := sharedCellDiffs(got, prev.res); len(diffs) > 0 {
				return stats, &Failure{Config: cfg.Name, Seed: opts.Seed, Session: session,
					Step: i, Kind: "pan-continuity", Query: step.Q, Diffs: diffs}
			}
		}

		cur := seenResult{q: step.Q, res: got, gen: gen}
		history = append(history, cur)
		if len(history) > 64 {
			history = history[1:]
		}
		prev = &cur
		prevOp = step.Op
	}
	return stats, nil
}

// sharedCellDiffs compares the cells present in both results: overlapping
// viewport regions must agree exactly.
func sharedCellDiffs(a, b query.Result) []oracle.Diff {
	shared := query.NewResult()
	ref := query.NewResult()
	for k, s := range a.Cells {
		if bs, ok := b.Cells[k]; ok {
			shared.Cells[k] = s
			ref.Cells[k] = bs
		}
	}
	return oracle.Compare(shared, ref)
}

// settle waits for the asynchronous cache-population pipeline to drain
// before an ingest bump. Population stamps the PLM epoch at insert time, so
// a pre-bump fetch inserted post-bump would be recorded fresh while holding
// stale data; quiescing first keeps the updates run deterministic.
func settle(c *cluster.Cluster) {
	last := c.TotalStats().PopulatedCells
	quiet := 0
	for i := 0; i < 100 && quiet < 3; i++ {
		time.Sleep(time.Millisecond)
		cur := c.TotalStats().PopulatedCells
		if cur == last {
			quiet++
		} else {
			quiet = 0
			last = cur
		}
	}
}
