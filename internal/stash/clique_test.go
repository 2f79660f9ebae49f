package stash

import (
	"testing"

	"stash/internal/cell"
)

// buildHierarchy caches a root cell, its 32 spatial children, and the 32
// children of one child, returning the root key.
func buildHierarchy(g *Graph) cell.Key {
	root := k("9q8")
	res := resultWith(root)
	children, _ := root.SpatialChildren()
	for _, c := range children {
		res.Add(c, summaryWith(1))
	}
	grand, _ := children[0].SpatialChildren()
	for _, gc := range grand {
		res.Add(gc, summaryWith(2))
	}
	g.Put(res)
	return root
}

func TestCliqueAtDepths(t *testing.T) {
	g := newTestGraph()
	root := buildHierarchy(g)

	c0 := g.CliqueAt(root, 0)
	if c0.Size() != 1 {
		t.Errorf("depth-0 clique size = %d, want 1 (root only)", c0.Size())
	}
	c1 := g.CliqueAt(root, 1)
	if c1.Size() != 33 {
		t.Errorf("depth-1 clique size = %d, want 33", c1.Size())
	}
	c2 := g.CliqueAt(root, 2)
	if c2.Size() != 65 {
		t.Errorf("depth-2 clique size = %d, want 65 (root+32+32)", c2.Size())
	}
	if c2.Root != root {
		t.Errorf("clique root = %v", c2.Root)
	}
	if c2.Freshness <= c1.Freshness {
		t.Error("deeper clique must accumulate at least as much freshness")
	}
}

func TestCliqueAtAbsentRoot(t *testing.T) {
	g := newTestGraph()
	c := g.CliqueAt(k("zzz"), 2)
	if c.Size() != 0 {
		t.Errorf("clique at absent root has %d members", c.Size())
	}
}

func TestCliqueOnlyIncludesResidentCells(t *testing.T) {
	g := newTestGraph()
	root := k("9q8")
	children, _ := root.SpatialChildren()
	// Cache root and only 3 children.
	res := resultWith(root, children[0], children[1], children[2])
	g.Put(res)
	c := g.CliqueAt(root, 1)
	if c.Size() != 4 {
		t.Errorf("clique size = %d, want 4 (resident cells only)", c.Size())
	}
}

func TestTopCliquesRanksByFreshness(t *testing.T) {
	g := newTestGraph()
	hot := k("9q8")
	cold := k("u4p")
	g.Put(resultWith(hot, cold))
	for i := 0; i < 10; i++ {
		g.GetBatch([]cell.Key{hot})
	}
	cliques := g.TopCliques(1, 100)
	if len(cliques) < 2 {
		t.Fatalf("cliques = %d, want >= 2", len(cliques))
	}
	if cliques[0].Root != hot {
		t.Errorf("hottest clique root = %v, want %v", cliques[0].Root, hot)
	}
	if cliques[0].Freshness <= cliques[1].Freshness {
		t.Error("cliques not sorted by freshness")
	}
}

func TestTopCliquesRespectsBudget(t *testing.T) {
	g := newTestGraph()
	buildHierarchy(g) // 65-cell hierarchy under 9q8
	g.Put(resultWith(k("u4p")))
	g.GetBatch([]cell.Key{k("u4p")})

	cliques := g.TopCliques(2, 10)
	total := 0
	for _, c := range cliques {
		total += c.Size()
	}
	if total > 10 {
		t.Errorf("clique budget exceeded: %d cells > 10", total)
	}
	if len(cliques) == 0 {
		t.Error("no cliques fit a budget of 10")
	}
	if got := g.TopCliques(2, 0); got != nil {
		t.Error("zero budget should yield no cliques")
	}
}

func TestTopCliquesSkipsCoveredRoots(t *testing.T) {
	g := newTestGraph()
	buildHierarchy(g)
	// With the parent resident, children must not found their own cliques.
	cliques := g.TopCliques(2, 1000)
	for _, c := range cliques {
		if c.Root.Geohash.String() != "9q8" && c.Root.Geohash.Len() > 3 {
			if parent, ok := spatialParentKey(c.Root); ok {
				if _, present := g.Peek(parent); present {
					t.Errorf("clique root %v has resident parent", c.Root)
				}
			}
		}
	}
}

func TestTopCliquesDisjoint(t *testing.T) {
	g := newTestGraph()
	buildHierarchy(g)
	g.Put(resultWith(k("u4p"), k("dr5")))
	g.GetBatch([]cell.Key{k("u4p"), k("dr5")})
	seen := map[cell.Key]bool{}
	for _, c := range g.TopCliques(2, 1000) {
		for _, key := range c.Keys {
			if seen[key] {
				t.Fatalf("cell %v appears in two cliques", key)
			}
			seen[key] = true
		}
	}
}

func TestTopCliquesEmptyGraph(t *testing.T) {
	g := newTestGraph()
	if got := g.TopCliques(2, 100); len(got) != 0 {
		t.Errorf("empty graph yielded cliques: %v", got)
	}
}
