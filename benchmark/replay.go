package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"stash/internal/cell"
	"stash/internal/cluster"
	"stash/internal/dht"
	"stash/internal/query"
)

// span is one timed interval of the staged replay. The harness owns these:
// the program's own obs spans are deliberately not read, so they stay free
// to change.
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a step's root
	Step     int    `json:"step"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// spanLog keeps every span in memory; write puts them out when the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent, step int) int {
	if l.t0.IsZero() {
		l.t0 = time.Now()
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Step: step, Name: name, Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = time.Since(l.t0).Nanoseconds() }

// selfTimes sums, per span name, each span's duration less the part its
// children cover (children of one parent run one after another here).
func (l *spanLog) selfTimes() map[string]time.Duration {
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range l.spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// stages are the replayed serve path in order; each is a span name and, with
// "trace." in front and "_ms_per_step" behind, a per-layer metric.
var stages = []string{
	"query.footprint", "dht.group", "stash.get", "stash.derive",
	"galileo.fetch", "stash.put", "cluster.merge",
}

// replay performs the serve path by hand, through public calls only, for the
// first tenth of the plan's measured steps (clients interleaved round-robin)
// on a second cluster set up exactly like the measured one. Every replayed
// answer must equal the oracle's. It files the trace.* metrics in out and
// returns the spans and the stage sum in ms per step.
func replay(p *plan, out *outcome) (*spanLog, float64, error) {
	e, _, _, err := setUp(p)
	if err != nil {
		return nil, 0, fmt.Errorf("replay set-up: %w", err)
	}
	defer e.c.Stop()
	cl := e.c.Client()
	spans := &spanLog{}

	steps := 0
	for i := 0; i < p.replaySteps(); i++ {
		for _, c := range p.clients {
			st := c[p.warm+i]
			steps++
			if st.update != nil {
				e.c.UpdateBlock(st.update.Prefix, st.update.Day)
			}
			got, err := replayStep(e.c, cl, st.q, spans, steps)
			if err == nil {
				err = checkOracle(e.orc, st.q, got)
			}
			if err != nil {
				out.failed++
				if out.firstErr == nil {
					out.firstErr = fmt.Errorf("replay: %w", err)
				}
			}
		}
	}
	out.attempted += steps

	self := spans.selfTimes()
	perStep := func(name string) float64 {
		return float64(self[name].Nanoseconds()) / 1e6 / float64(steps)
	}
	var sum float64
	for _, name := range stages {
		out.metrics["trace."+name+"_ms_per_step"] = perStep(name)
		sum += perStep(name)
	}
	out.metrics["trace.stage_sum_ms_per_step"] = sum
	for i := range spans.spans {
		spans.spans[i].Workload = p.info.name
	}
	return spans, sum, nil
}

// replayStep is Client.Query taken apart: footprint, owner grouping, then per
// owner (one after another) graph get, derivation of the misses, a storage
// scan of the residue and its population, and last the coordinator's merge.
func replayStep(c *cluster.Cluster, cl *cluster.Client, q query.Query, spans *spanLog, id int) (query.Result, error) {
	root := spans.begin("step", 0, id)
	defer spans.end(root)
	stage := func(name string, f func()) {
		s := spans.begin(name, root, id)
		f()
		spans.end(s)
	}

	var keys []cell.Key
	var err error
	stage("query.footprint", func() { keys, err = q.Footprint() })
	if err != nil {
		return query.Result{}, err
	}
	var byOwner map[dht.NodeID][]cell.Key
	stage("dht.group", func() { byOwner = cl.GroupByOwner(keys) })
	owners := make([]dht.NodeID, 0, len(byOwner))
	for id := range byOwner {
		owners = append(owners, id)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })

	parts := make([]query.Result, 0, len(owners))
	for _, owner := range owners {
		node, ks := c.Node(owner), byOwner[owner]
		g := node.Graph()
		var part query.Result
		var missing, unfetched []cell.Key
		stage("stash.get", func() { part, missing = g.GetBatch(ks) })
		if len(missing) > 0 {
			var derived query.Result
			stage("stash.derive", func() { derived, unfetched = g.DeriveBatch(missing) })
			part.Merge(derived)
		}
		if len(unfetched) > 0 {
			var disk query.Result
			stage("galileo.fetch", func() { disk, err = node.Store().FetchCells(unfetched) })
			if err != nil {
				return query.Result{}, err
			}
			stage("stash.put", func() {
				g.Put(disk)
				var empty []cell.Key
				for _, k := range unfetched {
					if _, ok := disk.Cells[k]; !ok {
						empty = append(empty, k)
					}
				}
				if len(empty) > 0 {
					g.PutEmpty(empty)
				}
			})
			part.Merge(disk)
		}
		parts = append(parts, part)
	}
	var merged query.Result
	stage("cluster.merge", func() { merged = cluster.MergeResults(parts, 0) })
	return merged, nil
}
