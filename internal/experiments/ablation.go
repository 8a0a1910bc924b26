package experiments

import (
	"math/rand"

	"evotree/internal/bb"
	"evotree/internal/cluster"
	"evotree/internal/compact"
	"evotree/internal/core"
)

// Ablations for the design choices DESIGN.md calls out: the max–min
// permutation, the UPGMM initial bound, the global-pool load balancer, the
// reduced-matrix linkage rule, and the generalized 3-3 filter.

func init() {
	register("ablation-maxmin", runAblationMaxMin)
	register("ablation-ub", runAblationUB)
	register("ablation-pool", runAblationPool)
	register("ablation-reduction", runAblationReduction)
	register("ablation-33", runAblation33)
	register("ablation-search", runAblationSearch)
}

func ablationSweep(cfg Config) []int {
	return sweep(cfg, []int{8, 10, 12, 14}, []int{7, 9})
}

// runAblationMaxMin measures the search-space effect of the max–min
// relabeling (Step 1 of BBU) in expanded BBT nodes.
func runAblationMaxMin(cfg Config) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Figure{
		ID: "ablation-maxmin", Title: "max–min permutation on vs off (expanded BBT nodes)",
		XLabel: "species", YLabel: "expanded nodes (mean)",
	}
	reps := instances(cfg, 4)
	for _, n := range ablationSweep(cfg) {
		var with, without []float64
		for r := 0; r < reps; r++ {
			m := hmdna(rng, n)
			on := bb.DefaultOptions()
			on.MaxNodes = parCap(cfg)
			off := on
			off.UseMaxMin = false
			r1, err := bb.Solve(m, on)
			if err != nil {
				return nil, err
			}
			r2, err := bb.Solve(m, off)
			if err != nil {
				return nil, err
			}
			with = append(with, float64(r1.Stats.Expanded))
			without = append(without, float64(r2.Stats.Expanded))
		}
		f.X = append(f.X, float64(n))
		f.AddPoint("max-min on", Mean(with))
		f.AddPoint("max-min off", Mean(without))
	}
	return f, nil
}

// runAblationUB measures the UPGMM initial upper bound (Step 3 of BBU)
// against starting from an infinite bound.
func runAblationUB(cfg Config) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Figure{
		ID: "ablation-ub", Title: "UPGMM initial bound vs no initial bound (expanded BBT nodes)",
		XLabel: "species", YLabel: "expanded nodes (mean)",
	}
	reps := instances(cfg, 4)
	for _, n := range ablationSweep(cfg) {
		var with, without []float64
		for r := 0; r < reps; r++ {
			m := hmdna(rng, n)
			on := bb.DefaultOptions()
			on.MaxNodes = parCap(cfg)
			off := on
			off.NoInitialUB = true
			r1, err := bb.Solve(m, on)
			if err != nil {
				return nil, err
			}
			r2, err := bb.Solve(m, off)
			if err != nil {
				return nil, err
			}
			with = append(with, float64(r1.Stats.Expanded))
			without = append(without, float64(r2.Stats.Expanded))
		}
		f.X = append(f.X, float64(n))
		f.AddPoint("UPGMM bound", Mean(with))
		f.AddPoint("no initial bound", Mean(without))
	}
	return f, nil
}

// runAblationPool measures the global/local pool load balancer on the
// virtual cluster: makespan and node utilisation with and without it.
func runAblationPool(cfg Config) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Figure{
		ID: "ablation-pool", Title: "two-level load balancing on vs off (virtual makespan, 16 nodes)",
		XLabel: "species", YLabel: "virtual time units (mean)",
	}
	reps := instances(cfg, 4)
	var effOn, effOff []float64
	// The pool only matters when there is real work to balance; use the
	// hard mtDNA workload at sizes where the search dwarfs the master's
	// initial dispatch.
	for _, n := range sweep(cfg, []int{14, 18, 22}, []int{9, 11}) {
		var with, without []float64
		for r := 0; r < reps; r++ {
			m := hmdnaHard(rng, n)
			on := cluster.ClusterConfig(16)
			on.BB.MaxNodes = parCap(cfg)
			off := on
			off.DisableGlobalPool = true
			r1, err := cluster.Simulate(m, on)
			if err != nil {
				return nil, err
			}
			r2, err := cluster.Simulate(m, off)
			if err != nil {
				return nil, err
			}
			with = append(with, r1.Makespan)
			without = append(without, r2.Makespan)
			effOn = append(effOn, r1.Efficiency(16))
			effOff = append(effOff, r2.Efficiency(16))
		}
		f.X = append(f.X, float64(n))
		f.AddPoint("global pool on", Mean(with))
		f.AddPoint("global pool off", Mean(without))
	}
	f.Note("mean node utilisation: %.0f%% with the pool, %.0f%% without",
		100*Mean(effOn), 100*Mean(effOff))
	return f, nil
}

// runAblationReduction compares the maximum / minimum / average reduced
// matrices by merged-tree cost relative to the exact optimum.
func runAblationReduction(cfg Config) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Figure{
		ID: "ablation-reduction", Title: "reduced-matrix rule: cost gap vs exact MUT",
		XLabel: "species", YLabel: "mean cost gap (%)",
	}
	reps := instances(cfg, 4)
	infeasible := map[compact.Reduction]int{}
	for _, n := range ablationSweep(cfg) {
		gaps := map[compact.Reduction][]float64{}
		for r := 0; r < reps; r++ {
			m := hmdna(rng, n)
			exact, err := core.Exact(m, cfg.Workers)
			if err != nil {
				return nil, err
			}
			for _, red := range []compact.Reduction{compact.Maximum, compact.Minimum, compact.Average} {
				opt := core.DefaultOptions(cfg.Workers)
				opt.Reduction = red
				opt.BB.MaxNodes = parCap(cfg)
				res, err := core.Construct(m, opt)
				if err != nil {
					return nil, err
				}
				gaps[red] = append(gaps[red], 100*core.CostGap(res.Cost, exact))
				if !res.Tree.Feasible(m, 1e-9) {
					infeasible[red]++
				}
			}
		}
		f.X = append(f.X, float64(n))
		f.AddPoint("maximum", Mean(gaps[compact.Maximum]))
		f.AddPoint("minimum", Mean(gaps[compact.Minimum]))
		f.AddPoint("average", Mean(gaps[compact.Average]))
	}
	f.Note("infeasible merged trees: maximum %d, minimum %d, average %d (only maximum is guaranteed feasible)",
		infeasible[compact.Maximum], infeasible[compact.Minimum], infeasible[compact.Average])
	return f, nil
}

// runAblation33 compares no 3-3, 3-3 at the third species (the paper), and
// the generalized per-insertion filter (the paper's future work) by
// expanded nodes and by cost deviation.
func runAblation33(cfg Config) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Figure{
		ID: "ablation-33", Title: "3-3 relationship: off vs third-species vs generalized (expanded nodes)",
		XLabel: "species", YLabel: "expanded nodes (mean)",
	}
	reps := instances(cfg, 4)
	var worstGap3, worstGapAll float64
	for _, n := range ablationSweep(cfg) {
		var off, third, all []float64
		for r := 0; r < reps; r++ {
			m := hmdna(rng, n)
			base := bb.DefaultOptions()
			base.MaxNodes = parCap(cfg)
			o3 := base
			o3.ThreeThree = true
			oAll := o3
			oAll.ThreeThreeAll = true
			r0, err := bb.Solve(m, base)
			if err != nil {
				return nil, err
			}
			r3, err := bb.Solve(m, o3)
			if err != nil {
				return nil, err
			}
			rAll, err := bb.Solve(m, oAll)
			if err != nil {
				return nil, err
			}
			off = append(off, float64(r0.Stats.Expanded))
			third = append(third, float64(r3.Stats.Expanded))
			all = append(all, float64(rAll.Stats.Expanded))
			if r0.Cost > 0 {
				if g := (r3.Cost - r0.Cost) / r0.Cost; g > worstGap3 {
					worstGap3 = g
				}
				if g := (rAll.Cost - r0.Cost) / r0.Cost; g > worstGapAll {
					worstGapAll = g
				}
			}
		}
		f.X = append(f.X, float64(n))
		f.AddPoint("no 3-3", Mean(off))
		f.AddPoint("3-3 third species", Mean(third))
		f.AddPoint("3-3 generalized", Mean(all))
	}
	f.Note("worst cost deviation: third-species %.2f%%, generalized %.2f%%", 100*worstGap3, 100*worstGapAll)
	return f, nil
}

// runAblationSearch compares the paper's DFS exploration order against a
// best-first (priority-queue) frontier: expanded nodes and frontier
// high-water mark (memory).
func runAblationSearch(cfg Config) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Figure{
		ID: "ablation-search", Title: "DFS vs best-first frontier (expanded nodes; pool high-water in notes)",
		XLabel: "species", YLabel: "expanded nodes (mean)",
	}
	reps := instances(cfg, 4)
	var dfsPool, bfPool []float64
	for _, n := range ablationSweep(cfg) {
		var dfs, bf []float64
		for r := 0; r < reps; r++ {
			m := hmdnaHard(rng, n)
			p, err := bb.NewProblem(m, true)
			if err != nil {
				return nil, err
			}
			opt := bb.DefaultOptions()
			opt.MaxNodes = parCap(cfg)
			rd := p.SolveSequential(opt)
			rb := p.SolveBestFirst(opt)
			dfs = append(dfs, float64(rd.Stats.Expanded))
			bf = append(bf, float64(rb.Stats.Expanded))
			dfsPool = append(dfsPool, float64(rd.Stats.MaxPoolLen))
			bfPool = append(bfPool, float64(rb.Stats.MaxPoolLen))
		}
		f.X = append(f.X, float64(n))
		f.AddPoint("DFS (paper)", Mean(dfs))
		f.AddPoint("best-first", Mean(bf))
	}
	f.Note("mean frontier high-water: DFS %.0f nodes, best-first %.0f nodes (best-first trades memory for fewer expansions)",
		Mean(dfsPool), Mean(bfPool))
	return f, nil
}
