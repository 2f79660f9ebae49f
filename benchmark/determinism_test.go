package main

import (
	"fmt"
	"strings"
	"testing"
)

// testScale shrinks every workload to 1 % of its steps.
const testScale = 0.01

// sequence renders a plan's inputs: every query and every updated block.
func sequence(p *plan) string {
	var b strings.Builder
	for c, steps := range p.clients {
		for i, st := range steps {
			fmt.Fprintf(&b, "%d/%d %v", c, i, st.q)
			if st.update != nil {
				fmt.Fprintf(&b, " update %v", *st.update)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// The same seed must give the same inputs and, on the single-client
// workloads, the same backend work to the cell; another seed other inputs.
func TestSameSeedSameRun(t *testing.T) {
	exact := []string{
		"blocks_read_per_step",
		"galileo.disk_cells_per_step",
		"stash.derived_per_step",
		"charged_ms_per_step",
	}
	for _, name := range []string{"explore_warm", "scan_cold", "update_mix"} {
		t.Run(name, func(t *testing.T) {
			var first *outcome
			var firstSeq string
			for round := 0; round < 2; round++ {
				p, err := newPlan(name, 7, 10, 2, testScale)
				if err != nil {
					t.Fatal(err)
				}
				o, _, err := runWorkload(p, false)
				if err != nil {
					t.Fatal(err)
				}
				if o.failed != 0 {
					t.Fatalf("%d of %d steps failed: %v", o.failed, o.attempted, o.firstErr)
				}
				if round == 0 {
					first, firstSeq = o, sequence(p)
					continue
				}
				if sequence(p) != firstSeq {
					t.Error("seed 7 gave two different step sequences")
				}
				for _, m := range exact {
					if o.metrics[m] != first.metrics[m] {
						t.Errorf("%s: %v then %v on the same seed", m, first.metrics[m], o.metrics[m])
					}
				}
			}
			other, err := newPlan(name, 8, 10, 2, testScale)
			if err != nil {
				t.Fatal(err)
			}
			if sequence(other) == firstSeq {
				t.Error("seeds 7 and 8 gave the same step sequence")
			}
		})
	}
}
