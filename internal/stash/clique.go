package stash

import (
	"sort"

	"stash/internal/cell"
)

// Clique is a subgraph of the STASH graph rooted at one cell and extending a
// configured number of levels down its spatial-children edges (paper
// §VII-B2). Cliques are the unit of hotspot replication: they capture a
// spatiotemporal region together with its finer-resolution refinements, so a
// helper node can answer drill-downs over the replicated region too.
//
// Cliques are identified by the spatiotemporal label of their topmost parent
// cell (the Root).
type Clique struct {
	// Root is the topmost parent cell identifying the clique.
	Root cell.Key
	// Keys lists every member cell resident in the graph, root included.
	Keys []cell.Key
	// Freshness is the cumulative (decayed) freshness of the members.
	Freshness float64
}

// Size returns the number of member cells.
func (c Clique) Size() int { return len(c.Keys) }

// CliqueAt assembles the clique rooted at the given key with the given depth:
// the root plus depth generations of spatial children, restricted to cells
// resident in the graph. Depth 0 is the root alone; the paper's example
// depth 2 adds children and grandchildren.
//
// Clique assembly is a whole-graph read (members span stripes), so it takes
// every stripe lock for a consistent snapshot. It runs only on the rare
// hotspot-handoff path, never per request.
func (g *Graph) CliqueAt(root cell.Key, depth int) Clique {
	g.lockAll()
	defer g.unlockAll()
	return g.cliqueLocked(root, depth)
}

// lookupAllLocked finds a cell in its home stripe. Callers hold every stripe
// lock (lockAll).
func (g *Graph) lookupAllLocked(k cell.Key) *record {
	return g.stripeFor(k).find(k)
}

func (g *Graph) cliqueLocked(root cell.Key, depth int) Clique {
	tick := g.tick.Load()
	cl := Clique{Root: root}
	frontier := []cell.Key{root}
	for gen := 0; gen <= depth; gen++ {
		var next []cell.Key
		for _, k := range frontier {
			if c := g.lookupAllLocked(k); c != nil {
				cl.Keys = append(cl.Keys, k)
				cl.Freshness += c.FreshnessAt(tick, g.decay)
			}
			if gen < depth {
				if ch, ok := k.SpatialChildren(); ok {
					next = append(next, ch...)
				}
			}
		}
		frontier = next
	}
	return cl
}

// TopCliques finds the hottest disjoint cliques of the given depth whose
// cumulative size stays within maxCells — the hotspotted node's replica
// selection (paper §VII-B2: "the top K Cliques whose cumulative size is
// <= N").
//
// Candidate roots are every resident cell whose spatial parent is not itself
// resident (so cliques nest as deep as the cached hierarchy allows without
// double-counting), ranked by cumulative freshness and taken greedily.
func (g *Graph) TopCliques(depth, maxCells int) []Clique {
	if maxCells <= 0 {
		return nil
	}
	g.lockAll()
	defer g.unlockAll()

	var candidates []Clique
	for _, s := range g.stripes {
		for row := 0; row < s.n; row++ {
			k := s.at(int32(row)).Key
			if parent, ok := spatialParentKey(k); ok && g.lookupAllLocked(parent) != nil {
				continue // covered by the parent's clique
			}
			cl := g.cliqueLocked(k, depth)
			if cl.Size() > 0 && cl.Freshness > 0 {
				candidates = append(candidates, cl)
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Freshness != candidates[j].Freshness {
			return candidates[i].Freshness > candidates[j].Freshness
		}
		return candidates[i].Root.String() < candidates[j].Root.String()
	})

	var out []Clique
	total := 0
	for _, cl := range candidates {
		if total+cl.Size() > maxCells {
			continue
		}
		out = append(out, cl)
		total += cl.Size()
	}
	return out
}

func spatialParentKey(k cell.Key) (cell.Key, bool) {
	p, ok := k.Geohash.Parent()
	return cell.Key{Geohash: p, Time: k.Time}, ok
}
