package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"evotree/internal/bb"
	"evotree/internal/compact"
	"evotree/internal/core"
	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/verify"
)

// decomposeSizes are the species counts of the decompose set, each drawn
// eight times (four times per family).
var decomposeSizes = []int{100, 150, 200, 250, 300}

type decomposeInst struct {
	m     *matrix.Matrix
	upgmm float64
	cost  float64 // cost of the first checked construction; 0 until then
}

type decomposeRunner struct {
	insts []*decomposeInst
}

func setupDecompose(seed int64) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &decomposeRunner{}
	for slot := 0; slot < 8*len(decomposeSizes); slot++ {
		m, err := structured(rng, slot, decomposeSizes[slot%len(decomposeSizes)])
		if err != nil {
			return nil, err
		}
		r.insts = append(r.insts, &decomposeInst{m: m, upgmm: upgmmCost(m)})
	}
	// Warm-up: construct one fixed matrix, so the set-up cost does not
	// depend on the seed.
	warm, err := structured(rand.New(rand.NewSource(0)), 0, decomposeSizes[len(decomposeSizes)/2])
	if err != nil {
		return nil, err
	}
	if _, err := core.Construct(warm, core.DefaultOptions(workers)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func (r *decomposeRunner) close() {}

func (r *decomposeRunner) run(d time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	k := len(r.insts)
	times := make([][]float64, k)
	var stats bb.Stats
	var subproblems, maxGroup, steals float64
	var hierMS, reduceMS, upgmmUS, setupUS []float64
	deadline := time.Now().Add(d)
	for pass := 0; ; pass++ {
		for i, in := range r.insts {
			if pass > 0 && time.Now().After(deadline) {
				break
			}
			op := pass*k + i
			opt := core.DefaultOptions(workers)
			root := tr.begin("core.construct", -1, op)
			if tr != nil {
				opt.Probe = phaseSpans(tr, root, op)
			}
			start := time.Now()
			res, err := core.Construct(in.m, opt)
			el := time.Since(start)
			tr.end(root)
			if err != nil {
				return nil, fmt.Errorf("construct: %w", err)
			}
			times[i] = append(times[i], el.Seconds())
			m.sample("construct_ms", float64(el.Nanoseconds())/1e6)
			m.attempted++
			if !res.Optimal {
				m.failed++
			}
			if in.cost == 0 {
				in.cost = res.Cost
				for _, f := range verify.CheckTree(in.m, res.Tree, res.Cost) {
					m.fail("decompose %d: %s", i, f)
				}
				for _, f := range verify.CheckDecomposition(in.m, res.Tree) {
					m.fail("decompose %d: %s", i, f)
				}
			} else if math.Abs(res.Cost-in.cost) > 1e-9*in.cost {
				m.fail("decompose %d: cost %v, first construction %v", i, res.Cost, in.cost)
			}
			steals += float64(res.Sched.Steals)
			if pass == 0 {
				stats.Add(res.Stats)
				subproblems += float64(len(res.Subproblems))
				for _, s := range res.Subproblems {
					maxGroup = math.Max(maxGroup, float64(s.Size))
				}
				if tr != nil {
					h, u, red, set := replayLayers(tr, in.m, op)
					hierMS = append(hierMS, h)
					upgmmUS = append(upgmmUS, u)
					reduceMS = append(reduceMS, red)
					setupUS = append(setupUS, set...)
				}
			}
		}
		if time.Now().After(deadline) {
			break
		}
	}
	var sum, cost, ref float64
	for i, in := range r.insts {
		sum += median(times[i])
		m.instMS = append(m.instMS, 1000*median(times[i]))
		m.latMS = append(m.latMS, 1000*median(times[i]))
		cost += in.cost
		ref += in.upgmm
	}
	m.solveS = sum
	m.costRatio = cost / ref
	m.layer["bb.expanded"] = float64(stats.Expanded)
	m.layer["bb.prune_ratio"] = pruneRatio(stats)
	m.layer["pbb.steals"] = steals * float64(k) / float64(m.attempted)
	m.layer["compact.subproblems"] = subproblems / float64(k)
	m.layer["compact.max_group"] = maxGroup
	if tr != nil {
		m.layer["compact.hierarchy_ms"] = median(hierMS)
		m.layer["compact.reduce_ms"] = median(reduceMS)
		m.layer["upgma.upgmm_us"] = median(upgmmUS)
		m.layer["bb.setup_us"] = median(setupUS)
		var self []float64
		for i, v := range tr.selfTimes() {
			if tr.spans[i].Name == "core.construct" {
				self = append(self, v)
			}
		}
		m.layer["core.self_ms"] = median(self)
	}
	return m, nil
}

// phaseSpans turns core's phase events into child spans of the
// construction span parent: each *End/Finish event carries its duration
// and arrives when the phase ends.
func phaseSpans(tr *tracer, parent, op int) obs.Probe {
	return obs.ProbeFunc(func(ev obs.Event) {
		var name string
		switch {
		case ev.Kind == obs.PhaseEnd && ev.Phase == "compact-detect":
			name = "core.compact_detect"
		case ev.Kind == obs.PhaseEnd && ev.Phase == "reduce":
			name = "core.reduce"
		case ev.Kind == obs.PhaseEnd && ev.Phase == "merge":
			name = "core.merge"
		case ev.Kind == obs.PhaseEnd && ev.Phase == "validate":
			name = "core.validate"
		case ev.Kind == obs.SubproblemFinish:
			name = "core.subproblem"
		default:
			return
		}
		tr.add(name, parent, op, time.Now(), ev.Elapsed)
	})
}

// replayLayers times the decomposition's layers by calling them directly
// on m: the compact-set hierarchy, the reduction of every internal node,
// bb set-up (NewProblem + InitialUpperBound) of every reduced matrix, and
// UPGMM on the whole matrix. It returns the hierarchy ms, UPGMM µs, total
// reduce ms and each bb set-up's µs.
func replayLayers(tr *tracer, m *matrix.Matrix, op int) (hierMS, upgmmUS, reduceMS float64, setupUS []float64) {
	id := tr.begin("compact.hierarchy", -1, op)
	h, _, err := compact.BuildHierarchy(m)
	hierMS = float64(tr.end(id).Nanoseconds()) / 1e6
	if err != nil {
		return
	}
	var walk func(h *compact.Hierarchy)
	walk = func(h *compact.Hierarchy) {
		if h.IsLeaf() {
			return
		}
		for _, c := range h.Children {
			walk(c)
		}
		id := tr.begin("compact.reduce", -1, op)
		small, _, err := compact.Reduce(m, h, compact.Maximum)
		reduceMS += float64(tr.end(id).Nanoseconds()) / 1e6
		if err != nil || small.Len() < 2 {
			return
		}
		id = tr.begin("bb.setup", -1, op)
		if p, err := bb.NewProblem(small, true); err == nil {
			p.InitialUpperBound()
		}
		setupUS = append(setupUS, float64(tr.end(id).Nanoseconds())/1e3)
	}
	walk(h)
	id = tr.begin("upgma.upgmm", -1, op)
	upgmmCost(m)
	upgmmUS = float64(tr.end(id).Nanoseconds()) / 1e3
	return
}
