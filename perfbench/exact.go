package main

import (
	"fmt"
	"math/rand"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
	"evotree/internal/pbb"
	"evotree/internal/verify"
)

// exactBudget caps every exact search, so a capped search is a failure.
// The frontier set needs at most about 300 000 expansions with the rules
// of bb.StrongOptions, and 3.5 million on the farm, which runs without
// propagation (see dist.pruned_ultrametric in README.md).
const exactBudget = 10_000_000

// replayNodes is the size of the fixed node sample per instance that the
// kernel replay pushes through Expand and PropagatedLB.
const replayNodes = 256

// frontierInst is one frontier matrix as sent, with its reference values.
type frontierInst struct {
	label string
	m     *matrix.Matrix
	upgmm float64
	cost  float64 // optimum of the first sequential solve; 0 until then
	seqX  int64   // sequential expansions of that solve
}

type exactRunner struct {
	insts []*frontierInst
}

func setupExact(seed int64) (runner, error) {
	r := &exactRunner{insts: frontierInstances(seed, "")}
	if err := warmUp(); err != nil {
		return nil, err
	}
	return r, nil
}

// warmUp solves one fixed frontier matrix sequentially and in parallel, so
// the set-up cost does not depend on the seed.
func warmUp() error {
	in := &frontierInst{label: "warm-up", m: frontierMatrix(frontierSet[0], rand.New(rand.NewSource(0)))}
	m := newMeasurement()
	solvePair(in, m, nil, 0)
	if len(m.checks) > 0 || m.failed > 0 {
		return fmt.Errorf("warm-up solve failed: %v", m.checks)
	}
	return nil
}

// frontierInstances builds the frontier set (restricted to family when
// non-empty) as frontierMatrix sends it for seed, in a seed-shuffled order.
func frontierInstances(seed int64, family string) []*frontierInst {
	rng := rand.New(rand.NewSource(seed))
	var out []*frontierInst
	for _, b := range frontierSet {
		if family != "" && b.family != family {
			continue
		}
		m := frontierMatrix(b, rng)
		out = append(out, &frontierInst{
			label: fmt.Sprintf("%s-%d/%d", b.family, b.n, b.gen),
			m:     m,
			upgmm: upgmmCost(m),
		})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// exactSample is one instance's pair of solves.
type exactSample struct {
	seqS, parS float64
	seq        bb.Stats
	par        *pbb.Result
}

// solvePair solves in sequentially (bb.NewProblem + SolveSequential, which
// is bb.Solve) and with pbb at two workers, and checks both answers. The
// spans are no-ops on a nil tracer, so traced and untraced runs do the
// same work.
func solvePair(in *frontierInst, m *measurement, tr *tracer, op int) *exactSample {
	opt := bb.StrongOptions()
	opt.MaxNodes = exactBudget
	popt := pbb.Options{Options: opt, Workers: workers, InitialFanout: 2}
	s := &exactSample{}
	var seq *bb.Result
	root := tr.begin("exact.instance", -1, op)
	start := time.Now()
	id := tr.begin("bb.new_problem", root, op)
	p, err := bb.NewProblem(in.m, opt.UseMaxMin)
	tr.end(id)
	if err == nil {
		id = tr.begin("bb.search", root, op)
		seq = p.SolveSequential(opt)
		tr.end(id)
	}
	s.seqS = time.Since(start).Seconds()
	if err != nil {
		m.fail("%s: sequential: %v", in.label, err)
		tr.end(root)
		return nil
	}
	id = tr.begin("pbb.solve", root, op)
	start = time.Now()
	s.par, err = pbb.Solve(in.m, popt)
	s.parS = time.Since(start).Seconds()
	tr.end(id)
	tr.end(root)
	if err != nil {
		m.fail("%s: parallel: %v", in.label, err)
		return nil
	}
	s.seq = seq.Stats
	m.attempted += 2
	for _, res := range []*bb.Result{seq, &s.par.Result} {
		if !res.Optimal {
			m.failed++
		}
	}
	if !seq.Optimal || !s.par.Optimal {
		return s
	}
	if in.cost == 0 {
		in.cost, in.seqX = seq.Cost, seq.Stats.Expanded
	}
	if seq.Cost != in.cost || s.par.Cost != in.cost {
		m.fail("%s: costs differ: seq %v, par %v, first %v", in.label, seq.Cost, s.par.Cost, in.cost)
	}
	checkSearch(m, in.label+" seq", in.m, seq)
	checkSearch(m, in.label+" par", in.m, &s.par.Result)
	return s
}

// pruneRatio is the share of search nodes discarded by some rule: pruned
// over generated children plus search roots, the nodes that entered the
// search (a decomposition runs one root per subproblem).
func pruneRatio(s bb.Stats) float64 {
	if s.Generated+s.Roots == 0 {
		return 0
	}
	return float64(s.Pruned.Total()) / float64(s.Generated+s.Roots)
}

// checkSearch verifies a finished exact search's tree and accounting.
func checkSearch(m *measurement, label string, mat *matrix.Matrix, res *bb.Result) {
	for _, f := range verify.CheckTree(mat, res.Tree, res.Cost) {
		m.fail("%s: %s", label, f)
	}
	for _, f := range verify.CheckAccounting(res.Stats) {
		m.fail("%s: %s", label, f)
	}
}

func (r *exactRunner) run(d time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	k := len(r.insts)
	seqT := make([][]float64, k)
	parT := make([][]float64, k)
	// Per-instance sums of the parallel counters, which vary run to run.
	parExp := make([]float64, k)
	steals := make([]float64, k)
	parks := make([]float64, k)
	donates := make([]float64, k)
	var seqStats bb.Stats
	op := 0
	deadline := time.Now().Add(d)
	for pass := 0; ; pass++ {
		for i, in := range r.insts {
			if pass > 0 && time.Now().After(deadline) {
				break
			}
			var spent time.Duration
			for rep := 0; rep < maxReps && (rep == 0 || spent < repBudget); rep++ {
				s := solvePair(in, m, tr, op)
				op++
				if s == nil {
					return m, nil
				}
				spent += time.Duration((s.seqS + s.parS) * float64(time.Second))
				seqT[i] = append(seqT[i], s.seqS)
				parT[i] = append(parT[i], s.parS)
				m.sample("seq_ms", 1000*s.seqS)
				m.sample("par_ms", 1000*s.parS)
				if pass == 0 && rep == 0 {
					seqStats.Add(s.seq)
				}
				parExp[i] += float64(s.par.Stats.Expanded)
				steals[i] += float64(s.par.Sched.Steals)
				parks[i] += float64(s.par.Sched.Parks)
				donates[i] += float64(s.par.Sched.Donates)
			}
		}
		if time.Now().After(deadline) {
			break
		}
	}
	// Parallel counters are per solve of the whole set: each instance's
	// mean over its solves, summed.
	var seqSum, parSum, parX, stealsX, parksX, donatesX, cost, ref float64
	for i, in := range r.insts {
		seqSum += median(seqT[i])
		m.instMS = append(m.instMS, 1000*median(seqT[i]))
		parSum += median(parT[i])
		m.latMS = append(m.latMS, 1000*median(parT[i]))
		n := float64(len(parT[i]))
		parX += parExp[i] / n
		stealsX += steals[i] / n
		parksX += parks[i] / n
		donatesX += donates[i] / n
		cost += in.cost
		ref += in.upgmm
	}
	m.solveS = seqSum
	m.costRatio = cost / ref
	m.layer["par_solve_s"] = parSum
	m.layer["pbb.speedup"] = seqSum / parSum
	m.layer["bb.expanded"] = float64(seqStats.Expanded)
	m.layer["bb.ns_per_expansion"] = 1e9 * seqSum / float64(seqStats.Expanded)
	m.layer["bb.prune_ratio"] = pruneRatio(seqStats)
	m.layer["bb.pruned_ultrametric"] = float64(seqStats.Pruned.Ultrametric)
	m.layer["bb.pruned_dominance"] = float64(seqStats.Pruned.Dominance)
	m.layer["pbb.steals"] = stealsX
	m.layer["pbb.parks"] = parksX
	m.layer["pbb.donates"] = donatesX
	m.layer["pbb.work_excess"] = parX / float64(seqStats.Expanded)
	if tr != nil {
		setup, exp, prop := r.replay(tr)
		m.layer["bb.setup_us"] = setup
		m.layer["bb.expand_ns"] = exp
		m.layer["bb.propagate_ns"] = prop
	}
	return m, nil
}

func (r *exactRunner) close() {}

// replayReps is how often the kernel replay repeats each node sample, so
// each timed loop runs for milliseconds rather than microseconds.
const replayReps = 20

// replay times bb's set-up (NewProblem + InitialUpperBound) on every
// instance, then pushes a fixed sample of every instance's search nodes
// through Expand and PropagatedLB. It returns the median over instances
// of the mean set-up µs, and the mean ns per Expand and PropagatedLB call.
func (r *exactRunner) replay(tr *tracer) (setupUS, expandNS, propagateNS float64) {
	opt := bb.StrongOptions()
	var expT, propT time.Duration
	var setups []float64
	calls := 0
	for i, in := range r.insts {
		if in.cost == 0 {
			continue
		}
		var p *bb.Problem
		var err error
		id := tr.begin("bb.setup_replay", -1, i)
		start := time.Now()
		for rep := 0; rep < replayReps && err == nil; rep++ {
			if p, err = bb.NewProblem(in.m, opt.UseMaxMin); err == nil {
				p.InitialUpperBound()
			}
		}
		setups = append(setups, float64(time.Since(start).Nanoseconds())/1e3/replayReps)
		tr.end(id)
		if err != nil {
			continue
		}
		sample := searchSample(p, opt.Constraints, in.cost, replayNodes)
		np := p.NewPool()
		id = tr.begin("bb.expand_replay", -1, i)
		start = time.Now()
		for rep := 0; rep < replayReps; rep++ {
			for _, v := range sample {
				children, _ := p.Expand(v, opt.Constraints, in.cost, false, np)
				for _, c := range children {
					np.Put(c)
				}
			}
		}
		expT += time.Since(start)
		tr.end(id)
		id = tr.begin("bb.propagate_replay", -1, i)
		start = time.Now()
		for rep := 0; rep < replayReps; rep++ {
			for _, v := range sample {
				p.PropagatedLB(v, np)
			}
		}
		propT += time.Since(start)
		tr.end(id)
		calls += replayReps * len(sample)
	}
	if calls == 0 {
		return median(setups), 0, 0
	}
	return median(setups), float64(expT.Nanoseconds()) / float64(calls), float64(propT.Nanoseconds()) / float64(calls)
}

// searchSample returns the first n incomplete nodes a depth-first search
// against the proven optimum ub pops, in the order the solver visits them.
func searchSample(p *bb.Problem, c bb.Constraints, ub float64, n int) []*bb.PNode {
	var out []*bb.PNode
	stack := []*bb.PNode{p.Root()}
	for len(stack) > 0 && len(out) < n {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.Complete(p) {
			continue
		}
		out = append(out, v)
		children, _ := p.Expand(v, c, ub, false, nil)
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}
	return out
}
