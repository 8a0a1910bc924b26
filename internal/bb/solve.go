package bb

import (
	"context"
	"math"
	"time"

	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/tree"
)

// Options configure a sequential solve.
type Options struct {
	Constraints
	// UseMaxMin applies the max–min relabeling (Step 1 of BBU). The paper
	// always enables it; it is an option here so the ablation benchmarks
	// can measure its effect.
	UseMaxMin bool
	// InitialUB overrides the UPGMM upper bound when positive and tighter.
	// Used by the decomposition pipeline, which may already know a feasible
	// cost. When it undercuts every solution (nothing strictly better is
	// found), the result falls back to the UPGMM tree and its cost rather
	// than reporting the unattained bound — see Result.
	InitialUB float64
	// NoInitialUB starts the search with an infinite upper bound instead
	// of the UPGMM solution — the ablation measuring what Step 3 of BBU
	// is worth.
	NoInitialUB bool
	// Propagate enables the incremental ultrametric propagation bound:
	// every popped node is re-bounded by PropagatedLB — the three-point
	// condition of the partial tree priced against every unplaced species
	// — and pruned when the propagated floor crosses the incumbent where
	// the plain tail bound did not. Exactness-preserving on any metric;
	// the yes/no test (PropagatedPrune) costs at most O((n−K)·K) per pop,
	// usually far less, and pays for itself by skipping whole expansions
	// (the Pruned.Ultrametric bucket measures it per run).
	Propagate bool
	// CollectAll retains every optimal tree instead of just one (Step 7 of
	// the parallel algorithm gathers all solutions).
	CollectAll bool
	// MaxNodes aborts the search after expanding this many BBT nodes when
	// positive; Result.Optimal reports false in that case. A safety valve
	// for the experiment harness.
	MaxNodes int64
	// Ctx, when non-nil, cancels the search: the solver checks it
	// periodically and returns the incumbent with Optimal=false once the
	// context is done.
	Ctx context.Context
	// Probe, when non-nil, receives typed telemetry events (search
	// start/finish, seed bound, every strict UB improvement). The nil
	// default costs the search one branch per event site.
	Probe obs.Probe
	// GapPeriod, when positive and Probe is non-nil, emits periodic
	// obs.GapSample convergence snapshots (incumbent, best open lower
	// bound, relative gap, frontier size, nodes/sec) at roughly this
	// interval, plus one initial and one terminal sample. Zero (the
	// default) disables sampling entirely, keeping the uninstrumented
	// event stream unchanged.
	GapPeriod time.Duration
}

// DefaultOptions enable the max–min relabeling and keep both 3-3 filters
// off, which makes the search exact. The companion paper enables ThreeThree
// and reports empirically unchanged results on its (near-ultrametric mtDNA)
// data; on arbitrary metrics the filter can cut an optimum, so it is opt-in
// here and exercised by the dedicated with/without experiments.
func DefaultOptions() Options {
	return Options{UseMaxMin: true}
}

// PaperOptions mirror the companion paper's configuration: max–min
// relabeling plus the 3-3 constraint at the third species.
func PaperOptions() Options {
	return Options{UseMaxMin: true, Constraints: Constraints{ThreeThree: true}}
}

// StrongOptions enable every exactness-preserving reduction: the defaults
// plus the ultrametric propagation bound and the twin dominance rules. This
// is the configuration the frontier benchmarks (n = 20..38) run under.
func StrongOptions() Options {
	opt := DefaultOptions()
	opt.Propagate = true
	opt.Dominance = true
	return opt
}

// ruleSet renders the optional search rules an Options value enables as a
// comma-joined list for the obs.SearchConfig event ("none" when every rule
// is off), in a fixed order so log lines diff cleanly.
func (opt Options) ruleSet() string {
	s := ""
	add := func(name string, on bool) {
		if !on {
			return
		}
		if s != "" {
			s += ","
		}
		s += name
	}
	add("maxmin", opt.UseMaxMin)
	add("threethree", opt.ThreeThree)
	add("threethreeall", opt.ThreeThreeAll)
	add("propagate", opt.Propagate)
	add("dominance", opt.Dominance)
	add("collectall", opt.CollectAll)
	if s == "" {
		s = "none"
	}
	return s
}

// EmitStart publishes the obs.ProblemStart event of a search over n
// species and, right after it, the obs.SearchConfig event naming the rules
// opt enables. Shared by every engine so traces and dashboards can
// attribute prune-rate differences to the configuration that produced
// them. No-op on a nil probe.
func EmitStart(p obs.Probe, n int, opt Options) {
	if p == nil {
		return
	}
	p.Emit(obs.Event{Kind: obs.ProblemStart, Worker: obs.MasterWorker, N: n})
	p.Emit(obs.Event{Kind: obs.SearchConfig, Worker: obs.MasterWorker,
		N: n, Phase: opt.ruleSet()})
}

// Stats count the work a search performed. The counters satisfy the
// node-accounting identity
//
//	Generated + Roots == Expanded + Pruned.Total() + Completed
//
// on every engine, including truncated searches (abandoned nodes count as
// budget prunes) — the verification harness asserts it differentially.
type Stats struct {
	Expanded int64 // BBT nodes branched
	// Generated counts candidate children considered: survivors plus
	// every candidate a rule discarded (bound, 3-3, constraint).
	Generated int64
	Solutions int64 // complete topologies reaching the incumbent cost
	UBUpdates int64 // strict improvements of the upper bound
	// Completed counts complete topologies consumed by the search,
	// whether or not they matched the incumbent.
	Completed int64
	// Roots counts search roots seeded (one per (sub)search; the parallel
	// engine's workers share the master's single root).
	Roots      int64
	MaxPoolLen int // high-water mark of the DFS stack / frontier
	// Pruned attributes every discarded node to the rule that killed it.
	Pruned PruneStats
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Expanded += other.Expanded
	s.Generated += other.Generated
	s.Solutions += other.Solutions
	s.UBUpdates += other.UBUpdates
	s.Completed += other.Completed
	s.Roots += other.Roots
	if other.MaxPoolLen > s.MaxPoolLen {
		s.MaxPoolLen = other.MaxPoolLen
	}
	s.Pruned.Add(other.Pruned)
}

// Result is the outcome of a solve.
//
// Tree is nil only when no feasible tree is known at all: Options.NoInitialUB
// suppressed the UPGMM seed and the (possibly truncated) search found no
// complete topology. When Options.InitialUB undercuts every solution the
// search can find, the UPGMM tree is returned as the incumbent with Cost set
// to ITS cost, so Tree and Cost always agree when Tree is non-nil.
type Result struct {
	Tree    *tree.Tree   // one minimum ultrametric tree (see nil contract above)
	Trees   []*tree.Tree // all optima when Options.CollectAll
	Cost    float64      // ω of Tree
	Optimal bool         // false only when MaxNodes cut the search short
	// OpenLB is the best lower bound among the open nodes a truncated
	// search abandoned — the proof floor: the true optimum is ≥
	// min(OpenLB, Cost). +Inf when the search ran to completion (no open
	// node remains, Cost is proven optimal).
	OpenLB float64
	Stats  Stats
}

// Solve constructs a minimum ultrametric tree for m with Algorithm BBU.
func Solve(m *matrix.Matrix, opt Options) (*Result, error) {
	p, err := NewProblem(m, opt.UseMaxMin)
	if err != nil {
		return nil, err
	}
	return p.SolveSequential(opt), nil
}

// SolveSequential runs the depth-first branch-and-bound on p. The DFS
// always descends into the child with the smallest lower bound first, which
// is the paper's "get the tree for branch using DFS" on a sorted pool.
func (p *Problem) SolveSequential(opt Options) *Result {
	return p.solveLocal(opt, &Stack{}, true)
}

// localFrontier is a frontier owned by one goroutine, whose open nodes a
// truncated search abandons in one sweep.
type localFrontier interface {
	Frontier
	open() []*PNode
}

// solveLocal runs a single-goroutine search over f, the engine's whole
// scheduling discipline: Stack for SolveSequential, an LB heap for
// SolveBestFirst (ordered).
func (p *Problem) solveLocal(opt Options, f localFrontier, worstFirst bool) *Result {
	start := time.Now()
	EmitStart(opt.Probe, p.n, opt)
	seed := p.SeedIncumbent(opt, start)
	best := p.NewBest(seed, opt, start)
	s := p.NewSearch(opt, best, p.NewPool(), NewBudget(opt.MaxNodes))
	s.WorstFirst = worstFirst
	// An LB-ordered frontier ends the search at its first pruned pop.
	_, s.ordered = f.(*bestFirst)
	s.SampleGap(opt.Probe, opt.GapPeriod, start)
	f.Push([]*PNode{s.Root()})
	s.Run(f)
	if s.Stopped() {
		s.Abandon(f.open()...)
	}
	res := &Result{Trees: best.Trees, Optimal: !s.Stopped(), OpenLB: s.OpenLB, Stats: s.Stats}
	res.Stats.Solutions, res.Stats.UBUpdates = best.Solutions, best.UBUpdates
	res.Tree, res.Cost = seed.Resolve(best.Tree, best.Cost)
	if opt.Probe != nil {
		// Flush the batched prune attribution and the terminal gap
		// snapshot BEFORE ProblemFinish: consumers rely on ProblemFinish
		// staying the final event of a search.
		EmitPruneStats(opt.Probe, obs.MasterWorker, res.Stats.Pruned, time.Since(start))
		s.gs.sampleNow(res.Cost, res.OpenLB, res.Stats.Expanded, s.exitOpen)
		opt.Probe.Emit(obs.Event{Kind: obs.ProblemFinish, Worker: obs.MasterWorker,
			Value: res.Cost, Nodes: res.Stats.Expanded, Elapsed: time.Since(start)})
	}
	return res
}

// Seed is the incumbent a search starts from (Step 3 of BBU).
type Seed struct {
	// UB is the bound the search starts pruning against.
	UB float64
	// Tree is the incumbent tree at UB: nil when UB is external or +Inf.
	Tree *tree.Tree

	upgmm     *tree.Tree // feasible fallback for an external UB
	upgmmCost float64
}

// SeedIncumbent returns the starting incumbent under opt: the UPGMM tree
// and its cost; +Inf and no tree under NoInitialUB; a tighter external
// InitialUB with no tree, keeping the UPGMM tree as the fallback (see
// Result). A finite seed is announced as obs.SeedBound.
func (p *Problem) SeedIncumbent(opt Options, start time.Time) Seed {
	t, cost := p.InitialUpperBound()
	s := Seed{UB: cost, Tree: t, upgmm: t, upgmmCost: cost}
	if opt.NoInitialUB {
		s = Seed{UB: math.Inf(1)}
	}
	if opt.InitialUB > 0 && opt.InitialUB < s.UB {
		s.UB, s.Tree = opt.InitialUB, nil
	}
	if opt.Probe != nil && !math.IsInf(s.UB, 1) {
		opt.Probe.Emit(obs.Event{Kind: obs.SeedBound, Worker: obs.MasterWorker,
			Value: s.UB, Elapsed: time.Since(start)})
	}
	return s
}

// Resolve returns the tree and cost a search reports: its own incumbent,
// or — when nothing beat an external bound — the feasible UPGMM tree with
// ITS cost, so Tree and Cost always agree.
func (s Seed) Resolve(t *tree.Tree, cost float64) (*tree.Tree, float64) {
	if t == nil && s.upgmm != nil {
		return s.upgmm, s.upgmmCost
	}
	return t, cost
}

// Best is the incumbent record of a search: the best cost found, its tree
// (every optimal tree under CollectAll) and the solution counts. It is the
// Incumbent of the single-goroutine engines; the parallel engine guards
// one with a mutex. Not safe for concurrent use.
type Best struct {
	Cost      float64
	Tree      *tree.Tree   // nil while Cost is external or +Inf
	Trees     []*tree.Tree // every tree at Cost, under CollectAll
	Solutions int64        // complete topologies at Cost
	UBUpdates int64        // strict improvements of Cost

	p          *Problem
	collectAll bool
	probe      obs.Probe
	start      time.Time
}

// NewBest returns a record holding the seed incumbent.
func (p *Problem) NewBest(seed Seed, opt Options, start time.Time) *Best {
	b := &Best{Cost: seed.UB, Tree: seed.Tree, p: p, collectAll: opt.CollectAll,
		probe: opt.Probe, start: start}
	if b.collectAll && b.Tree != nil {
		b.Trees = []*tree.Tree{b.Tree}
	}
	return b
}

// Bound and Offer make Best the Incumbent of a single-goroutine search.
func (b *Best) Bound() float64 { return b.Cost }

func (b *Best) Offer(v *PNode, st *Stats) float64 {
	b.Add(v, st.Expanded, obs.MasterWorker)
	return b.Cost
}

// Add folds a complete topology found by worker, after expanded
// expansions, into the record and reports whether it strictly improved
// Cost. Topologies above Cost are ignored.
func (b *Best) Add(v *PNode, expanded int64, worker int) bool {
	kind := obs.SolutionFound
	switch {
	case v.Cost < b.Cost:
		kind = obs.UBImproved
		b.Cost = v.Cost
		b.Tree = v.Tree(b.p)
		b.UBUpdates++
		b.Solutions = 1
		if b.collectAll {
			b.Trees = append(b.Trees[:0], b.Tree)
		}
	case v.Cost == b.Cost:
		b.Solutions++
		if b.collectAll {
			b.Trees = append(b.Trees, v.Tree(b.p))
		}
		if b.Tree == nil {
			b.Tree = v.Tree(b.p)
		}
	default:
		return false
	}
	if b.probe != nil {
		b.probe.Emit(obs.Event{Kind: kind, Worker: worker,
			Value: v.Cost, Nodes: expanded, Elapsed: time.Since(b.start)})
	}
	return kind == obs.UBImproved
}

// BruteForce enumerates every rooted binary topology over the species of m
// and returns a minimum ultrametric tree with its cost. Exponential; only
// sensible for n ≤ 9. Used to validate the branch-and-bound.
func BruteForce(m *matrix.Matrix) (*tree.Tree, float64, error) {
	p, err := NewProblem(m, false)
	if err != nil {
		return nil, 0, err
	}
	best := math.Inf(1)
	var bestNode *PNode
	var rec func(v *PNode)
	rec = func(v *PNode) {
		if v.Complete(p) {
			if v.Cost < best {
				best = v.Cost
				bestNode = v
			}
			return
		}
		s := v.K
		md := make([]float64, v.Positions())
		p.maxDistSweep(v, s, md)
		for pos := 0; pos < v.Positions(); pos++ {
			rec(p.insert(v, s, pos, nil, md))
		}
	}
	rec(p.Root())
	return bestNode.Tree(p), best, nil
}

// CountTopologies returns A(n) = Π_{k=2}^{n−1} (2k−1), the number of rooted
// binary leaf-labeled topologies the search space contains, saturating at
// math.MaxFloat64.
func CountTopologies(n int) float64 {
	a := 1.0
	for k := 2; k < n; k++ {
		a *= float64(2*k - 1)
		if math.IsInf(a, 1) {
			return math.MaxFloat64
		}
	}
	return a
}
