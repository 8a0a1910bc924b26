package verify

import (
	"math/rand"
	"sync"
	"testing"

	"evotree/internal/bb"
	"evotree/internal/dist"
	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/pbb"
)

// TestSearchConfigAllEnginesAllRuleSets runs every engine under every
// combination of the optional pruning rules and requires exactly one
// obs.SearchConfig event naming the rules the engine was given: an option
// an engine silently drops shows up here as a rule-set mismatch.
func TestSearchConfigAllEnginesAllRuleSets(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(12)), 9)
	ruleSets := []struct {
		name                 string
		propagate, dominance bool
	}{
		{"maxmin", false, false},
		{"maxmin,propagate", true, false},
		{"maxmin,dominance", false, true},
		{"maxmin,propagate,dominance", true, true},
	}
	type run func(bb.Options) (float64, error)
	engines := []struct {
		name string
		run  run
	}{
		{"bb", func(o bb.Options) (float64, error) {
			res, err := bb.Solve(m, o)
			if err != nil {
				return 0, err
			}
			return res.Cost, nil
		}},
		{"bestfirst", func(o bb.Options) (float64, error) {
			p, err := bb.NewProblem(m, o.UseMaxMin)
			if err != nil {
				return 0, err
			}
			return p.SolveBestFirst(o).Cost, nil
		}},
		{"pbb", func(o bb.Options) (float64, error) {
			res, err := pbb.Solve(m, pbb.Options{Options: o, Workers: 3, InitialFanout: 2})
			if err != nil {
				return 0, err
			}
			return res.Cost, nil
		}},
		{"dist", func(o bb.Options) (float64, error) {
			res, err := dist.Solve(m, dist.Options{Workers: 2, BB: o})
			if err != nil {
				return 0, err
			}
			return res.Cost, nil
		}},
	}
	want := 0.0
	for _, e := range engines {
		for _, rs := range ruleSets {
			var mu sync.Mutex
			var configs []string
			o := bb.DefaultOptions()
			o.Propagate, o.Dominance = rs.propagate, rs.dominance
			o.Probe = obs.ProbeFunc(func(ev obs.Event) {
				if ev.Kind == obs.SearchConfig {
					mu.Lock()
					configs = append(configs, ev.Phase)
					mu.Unlock()
				}
			})
			cost, err := e.run(o)
			if err != nil {
				t.Fatalf("%s %s: %v", e.name, rs.name, err)
			}
			if len(configs) != 1 || configs[0] != rs.name {
				t.Errorf("%s %s: SearchConfig events %q, want exactly [%q]", e.name, rs.name, configs, rs.name)
			}
			if want == 0 {
				want = cost
			} else if cost != want {
				t.Errorf("%s %s: cost %v, want %v", e.name, rs.name, cost, want)
			}
		}
	}
}
