package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"stash/internal/galileo"
	"stash/internal/geohash"
	"stash/internal/query"
	"stash/internal/temporal"
	"stash/internal/workload"
)

// workloadInfo names one workload and records why it exists. The same text is
// in BENCHMARK.json; the schema test keeps the two in step.
type workloadInfo struct {
	name string
	why  string
	// baseSteps is the per-client step count of a referenceSeconds run,
	// warm-up included. All four scale by the one factor seconds /
	// referenceSeconds, so step counts (and with them every per-step
	// counter) are a function of the flags alone, never of machine speed.
	baseSteps int
	// capacity overrides the per-node STASH capacity (cells); 0 keeps
	// cluster.DefaultConfig's.
	capacity int
	// multi runs one closed-loop client per processor instead of one.
	multi bool
	// home pre-warms the home box during set-up.
	home bool
	// steps generates one client's n steps from its stream.
	steps func(rng *rand.Rand, n int) []step
}

// referenceSeconds is the run length baseSteps (the issue's step counts) are
// sized for: at this value a measured phase lasts 10 to 20 seconds, depending
// on the workload, on a 2-vCPU 2.1 GHz Xeon in a quiet minute.
const referenceSeconds = 18

var workloads = []workloadInfo{
	{name: "explore_warm", baseSteps: 6000, home: true,
		steps: func(rng *rand.Rand, n int) []step { return walkSteps(rng, n, 0) },
		why:   "viewport walks inside a pre-warmed home box: every step is a hit or a derive, the paper's product; galileo idle"},
	{name: "scan_cold", baseSteps: 1500, steps: coldSteps,
		why: "state-size rectangles each seen once: nearly every cell misses, so galileo scan, namgen and population dominate"},
	{name: "sessions_evict", baseSteps: 3600, capacity: 2000, multi: true, steps: sessionSteps,
		why: "one client per CPU, Zipf over 64 regions, working set about 1.6 times the cache: eviction and locks under contention"},
	{name: "update_mix", baseSteps: 5000, home: true,
		steps: func(rng *rand.Rand, n int) []step { return walkSteps(rng, n, updateEvery) },
		why:   "the warm walk with a block rewritten every 5th step: PLM invalidation and partial refetch beside reads"},
}

// findWorkload returns the workload's index in workloads, or -1.
func findWorkload(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return -1
}

// Fixed geography. The seed drives the walk, the placement jitter, the Zipf
// draws and the updated blocks; the home box and the 64 session regions are
// the same for every seed. A seed-dependent home box would change the
// owner fan-out and block alignment of the whole run, and the cross-seed
// spread of charged_ms_per_step would then measure geography, not the code.
var (
	homeBox = geohash.Box{MinLat: 30, MaxLat: 46, MinLon: -120, MaxLon: -88}
	// ladderBox is the one state-size footprint F of the layer ladder.
	ladderBox = geohash.Box{MinLat: 36, MaxLat: 40, MinLon: -108, MaxLon: -100}
)

const (
	// checkEvery is the oracle sampling period of the measured phase.
	checkEvery = 50
	// updateEvery is update_mix's ingest period, in steps.
	updateEvery = 5
	// warmFraction of every client's steps run before the clock starts.
	warmFraction   = 0.10
	sessionRegions = 64
)

// step is one analyst click, plus what the harness does around it.
type step struct {
	q query.Query
	// keys is the footprint size (cluster.keys_per_step), counted at
	// generation so the measured loop does not enumerate it again.
	keys int
	// update names a block UpdateBlock rewrites right before the step.
	update *galileo.BlockID
	// check marks the step for an (untimed) oracle comparison.
	check bool
}

// plan is everything a run does, fixed by (workload, seed, seconds, clients)
// before the first cluster is built. The program under test sees only the
// queries.
type plan struct {
	info    workloadInfo
	seed    int64
	prewarm []query.Query
	// clients holds each client's steps in order: warm of them warm-up,
	// the rest measured.
	clients [][]step
	warm    int
}

func (p *plan) measuredSteps() int {
	n := 0
	for _, c := range p.clients {
		n += len(c) - p.warm
	}
	return n
}

// replaySteps is how many measured steps per client the staged replay
// covers: the first tenth.
func (p *plan) replaySteps() int {
	if n := (len(p.clients[0]) - p.warm) / 10; n > 1 {
		return n
	}
	return 1
}

func baseQuery(b geohash.Box) query.Query {
	return query.Query{
		Box:         b,
		Time:        workload.DefaultDay(),
		SpatialRes:  workload.DefaultSpatialRes,
		TemporalRes: temporal.Day,
	}
}

// newPlan generates a workload's inputs. scale multiplies every step count
// (tests pass 0.01).
func newPlan(name string, seed int64, seconds int, procs int, scale float64) (*plan, error) {
	idx := findWorkload(name)
	if idx < 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	info := workloads[idx]
	n := int(math.Round(float64(info.baseSteps) * float64(seconds) / referenceSeconds * scale))
	if n < 20 {
		n = 20
	}
	clients := 1
	if info.multi {
		clients = procs
	}
	p := &plan{info: info, seed: seed, warm: int(float64(n) * warmFraction), clients: make([][]step, clients)}
	if info.home {
		p.prewarm = []query.Query{baseQuery(homeBox)}
	}
	for c := range p.clients {
		// One stream per (seed, client, workload): two workloads at one
		// seed do not share a sequence.
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + int64(idx)))
		steps := info.steps(rng, n)
		for i := range steps {
			k, err := steps[i].q.FootprintCount()
			if err != nil {
				return nil, fmt.Errorf("%s step %d: %w", name, i, err)
			}
			steps[i].keys = k
			if i >= p.warm && (i-p.warm)%checkEvery == 0 {
				steps[i].check = true
			}
		}
		p.clients[c] = steps
	}
	return p, nil
}

// The three things an explore_warm step can be.
const (
	opPan = iota
	opDice
	opRollUp
)

// walkSteps is the explore_warm session: a state-size viewport that pans with
// momentum inside the home box (60 % of steps), looks at a 20 % smaller dice of
// itself (20 %) or rolls the view up to resolution 3 (20 %). The arena keeps
// the viewport one resolution-3 tile (1.41 degrees) clear of the home box's
// edge, so every roll-up parent has all 32 children resident and derives.
// With updateEvery > 0 it is update_mix: a block under the coming viewport is
// rewritten before every updateEvery-th step, and that step is checked.
func walkSteps(rng *rand.Rand, n, updateEvery int) []step {
	const margin = 1.5
	arena := geohash.Box{
		MinLat: homeBox.MinLat + margin, MaxLat: homeBox.MaxLat - margin,
		MinLon: homeBox.MinLon + margin, MaxLon: homeBox.MaxLon - margin,
	}
	dLat, dLon := workload.State.Extent()
	cLat, cLon := homeBox.Center()
	vp := baseQuery(geohash.Box{
		MinLat: cLat - dLat/2, MaxLat: cLat + dLat/2,
		MinLon: cLon - dLon/2, MaxLon: cLon + dLon/2,
	})
	dirs := geohash.Directions()
	dir := dirs[rng.Intn(len(dirs))]
	day := temporal.At(workload.DefaultDay().Start, temporal.Day)
	// The mix is exact, not expected: every ten steps are six pans, two
	// dices and two roll-ups in a drawn order, so two seeds do the same
	// amount of each.
	deck := []int{opPan, opPan, opPan, opPan, opPan, opPan, opDice, opDice, opRollUp, opRollUp}
	steps := make([]step, 0, n)
	for i := 0; i < n; i++ {
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		var q query.Query
		switch deck[i%len(deck)] {
		case opPan:
			// Momentum: an analyst keeps dragging the same way; a new
			// heading is drawn 3 times in 10 and whenever the arena's
			// edge is in the way. Ballistic motion crosses the arena in
			// tens of steps, so a run averages over the whole home box.
			for try := 0; ; try++ {
				d := dir
				if try > 0 || rng.Float64() < 0.3 {
					d = dirs[rng.Intn(len(dirs))]
				}
				next := vp.Pan(d, 0.10+0.15*rng.Float64())
				if arena.ContainsBox(next.Box) {
					vp, dir = next, d
					break
				}
			}
			q = vp
		case opDice:
			q = vp.DiceShrink(0.2)
		default:
			q, _ = vp.RollUp()
		}
		st := step{q: q}
		if updateEvery > 0 && i%updateEvery == updateEvery-1 {
			lat := q.Box.MinLat + rng.Float64()*q.Box.Height()
			lon := q.Box.MinLon + rng.Float64()*q.Box.Width()
			st.update = &galileo.BlockID{Prefix: geohash.Encode(lat, lon, galileo.DefaultBlockPrefixLen), Day: day}
			st.check = true
		}
		steps = append(steps, st)
	}
	return steps
}

// coldSteps places n state-size rectangles over workload.Region, one per
// stratum of a rows x cols grid, jittered inside the stratum and visited in
// shuffled order. Stratifying keeps the rectangles nearly disjoint (each is
// a first view) and makes the per-step means a property of the grid rather
// than of where a uniform draw happened to cluster.
func coldSteps(rng *rand.Rand, n int) []step {
	dLat, dLon := workload.State.Extent()
	r := workload.Region
	spanLat, spanLon := r.Height()-dLat, r.Width()-dLon
	side := math.Sqrt(spanLat * spanLon / (float64(n) * dLon / dLat))
	rows := int(math.Ceil(spanLat / side))
	cols := int(math.Ceil(spanLon / (side * dLon / dLat)))
	for rows*cols < n {
		cols++
	}
	order := rng.Perm(rows * cols)[:n]
	steps := make([]step, n)
	for i, cellIdx := range order {
		row, col := cellIdx/cols, cellIdx%cols
		minLat := r.MinLat + (float64(row)+rng.Float64())*spanLat/float64(rows)
		minLon := r.MinLon + (float64(col)+rng.Float64())*spanLon/float64(cols)
		steps[i] = step{q: baseQuery(geohash.Box{
			MinLat: minLat, MaxLat: minLat + dLat,
			MinLon: minLon, MaxLon: minLon + dLon,
		})}
	}
	return steps
}

// sessionSteps is one sessions_evict client: visits over 64 fixed state-size
// regions (an 8 x 8 grid over workload.Region; rank r sits at grid slot 37r
// mod 64, so neighbours in popularity are far apart on the ring), each visit
// four 20 % pans around a square (north, east, south, west). A region's
// footprint is about 1.4 times its base box, 64 regions about 1.6 times the
// 16 x 2000-cell cache.
//
// Visit frequencies are Zipf(1.1) exactly, not in expectation: rank r gets
// its share c of the visits (largest remainder). A few hundred independent
// draws would put the hottest region's share, and with it the hit ratio,
// anywhere within several per cent. The order is stratified the same way:
// rank r's k-th visit falls at a seed-drawn moment inside the k-th of c equal
// slices of the run, so how long a region waits for its next visit (what an
// eviction policy is sensitive to) still varies from visit to visit, but two
// seeds see the same mix of short and long waits.
func sessionSteps(rng *rand.Rand, n int) []step {
	const side = 8
	dLat, dLon := workload.State.Extent()
	r := workload.Region
	visits := (n + 3) / 4
	type visit struct {
		rank int
		at   float64
	}
	order := make([]visit, 0, visits)
	for rank, c := range zipfCounts(sessionRegions, visits, 1.1) {
		for k := 0; k < c; k++ {
			order = append(order, visit{rank, (float64(k) + rng.Float64()) / float64(c)})
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].at < order[j].at })
	cardinals := []geohash.Direction{geohash.North, geohash.East, geohash.South, geohash.West}
	steps := make([]step, 0, visits*4)
	for _, v := range order {
		slot := v.rank * 37 % sessionRegions
		cLat := r.MinLat + (float64(slot/side)+0.5)*r.Height()/side
		cLon := r.MinLon + (float64(slot%side)+0.5)*r.Width()/side
		q := baseQuery(geohash.Box{
			MinLat: cLat - dLat/2, MaxLat: cLat + dLat/2,
			MinLon: cLon - dLon/2, MaxLon: cLon + dLon/2,
		})
		for _, d := range cardinals {
			q = q.Pan(d, 0.2)
			steps = append(steps, step{q: q})
		}
	}
	return steps[:n]
}

// zipfCounts splits n visits over the ranks [0, regions) in proportion to
// (r+1)^-skew, rounded by largest remainder.
func zipfCounts(regions, n int, skew float64) []int {
	weights := make([]float64, regions)
	var total float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -skew)
		total += weights[r]
	}
	counts := make([]int, regions)
	order := make([]int, regions)
	rest := make([]float64, regions)
	given := 0
	for r, w := range weights {
		share := float64(n) * w / total
		counts[r] = int(share)
		rest[r] = share - float64(counts[r])
		given += counts[r]
		order[r] = r
	}
	sort.SliceStable(order, func(i, j int) bool { return rest[order[i]] > rest[order[j]] })
	for _, r := range order[:n-given] {
		counts[r]++
	}
	return counts
}
