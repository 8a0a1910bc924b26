// Package core assembles the paper's end-to-end technique: compact-set
// decomposition of a distance matrix into several small matrices, parallel
// branch-and-bound construction of an ultrametric subtree for each, and a
// merge of the subtrees into one near-optimal ultrametric tree that keeps
// the relations among species.
//
// Construct with Options.UseCompactSets=false runs the plain (parallel)
// branch-and-bound on the full matrix — the paper's control condition.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"evotree/internal/bb"
	"evotree/internal/compact"
	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/pbb"
	"evotree/internal/tree"
)

// Options configure Construct.
type Options struct {
	// UseCompactSets enables the decomposition (the paper's condition 1);
	// when false the full matrix goes straight to the branch-and-bound
	// (condition 2).
	UseCompactSets bool
	// Reduction picks the group-distance rule for the small matrices. The
	// paper studies Maximum, the only rule that keeps the merged tree
	// feasible.
	Reduction compact.Reduction
	// Workers caps the total number of search goroutines across the whole
	// pipeline. Concurrent subproblems share this budget through a weighted
	// semaphore: each sequential solve costs one unit, each parallel solve
	// costs one unit per pbb worker it is granted (at least one, at most
	// Workers), so machine load never exceeds Workers no matter how many
	// hierarchy nodes are solvable at once.
	Workers int
	// BB carries the branch-and-bound options (max–min, 3-3, MaxNodes...).
	BB bb.Options
	// ParallelThreshold routes subproblems with at least this many groups
	// to the parallel engine (the paper feeds its small matrices to the
	// parallel branch-and-bound); smaller ones run sequentially to avoid
	// goroutine overhead. Zero means 12.
	ParallelThreshold int
	// Probe, when non-nil, receives pipeline telemetry (phase timings for
	// compact-set detection, reduction, each subproblem solve, and the
	// merge) and is propagated to the underlying searches unless BB.Probe
	// is already set.
	Probe obs.Probe
}

// DefaultOptions is the paper's configuration: compact sets on, maximum
// matrices, exact B&B per subproblem.
func DefaultOptions(workers int) Options {
	return Options{
		UseCompactSets: true,
		Reduction:      compact.Maximum,
		Workers:        workers,
		BB:             bb.DefaultOptions(),
	}
}

// Subproblem records one reduced matrix solved during decomposition.
type Subproblem struct {
	Group []int   // species of the hierarchy node
	Size  int     // dimension of the reduced matrix
	Cost  float64 // ω of the subtree built for it
}

// Result is the outcome of Construct.
type Result struct {
	Tree        *tree.Tree    // the assembled ultrametric tree
	Cost        float64       // ω(Tree)
	CompactSets []compact.Set // detected non-trivial compact sets (nil without decomposition)
	Subproblems []Subproblem  // one per internal hierarchy node (nil without decomposition)
	Stats       bb.Stats      // aggregated search statistics
	// Sched aggregates the work-stealing scheduler traffic (steals, parks,
	// overflow donations) of every parallel sub-solve in the pipeline; zero
	// when only sequential solves ran.
	Sched   pbb.SchedStats
	Elapsed time.Duration // wall-clock construction time
	// Optimal reports whether every underlying search ran to completion.
	// False means a node budget or context cancelled at least one solve, so
	// the tree may be worse than the method's true output (the verification
	// harness skips cost-equality assertions in that case).
	Optimal bool
}

// Construct builds an ultrametric tree for m according to opt.
func Construct(m *matrix.Matrix, opt Options) (*Result, error) {
	start := time.Now()
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	if opt.Probe != nil && opt.BB.Probe == nil {
		// Let the pipeline probe see the underlying searches too (seed
		// bounds, UB improvements, pool traffic).
		opt.BB.Probe = opt.Probe
	}
	var res *Result
	var err error
	if opt.UseCompactSets {
		res, err = constructDecomposed(m, opt)
	} else {
		res, err = constructWhole(m, opt)
	}
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func constructWhole(m *matrix.Matrix, opt Options) (*Result, error) {
	if m.Len() == 1 {
		t := tree.New(0)
		t.SetNames(m.Names())
		return &Result{Tree: t, Optimal: true}, nil
	}
	pres, err := pbb.Solve(m, pbb.Options{Options: opt.BB, Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	return &Result{Tree: pres.Tree, Cost: pres.Cost, Stats: pres.Stats,
		Sched: pres.Sched, Optimal: pres.Optimal}, nil
}

func constructDecomposed(m *matrix.Matrix, opt Options) (*Result, error) {
	pipeStart := time.Now()
	emit := func(ev obs.Event) {
		if opt.Probe != nil {
			opt.Probe.Emit(ev)
		}
	}
	emit(obs.Event{Kind: obs.PhaseStart, Phase: "compact-detect", N: m.Len()})
	detectStart := time.Now()
	hier, sets, err := compact.BuildHierarchy(m)
	if err != nil {
		return nil, err
	}
	emit(obs.Event{Kind: obs.PhaseEnd, Phase: "compact-detect",
		N: len(sets), Elapsed: time.Since(detectStart)})
	res := &Result{CompactSets: sets, Optimal: true}
	var subID atomic.Int64 // telemetry ids for concurrently solved subproblems

	// Solve the internal hierarchy nodes bottom-up. Independent nodes run
	// concurrently, bounded by opt.Workers — the "constructing evolutionary
	// tree in parallel" of the paper's title. The semaphore is weighted in
	// search-goroutine units: a sequential solve costs one unit and a
	// parallel solve costs one unit per pbb worker it actually runs, so the
	// total number of search goroutines never exceeds opt.Workers. (The seed
	// implementation accounted one unit per subproblem while each parallel solve
	// spawned opt.Workers goroutines of its own — Workers² at the worst.)
	sem := newWorkerSem(opt.Workers)
	var mu sync.Mutex // guards res.Subproblems, res.Stats, firstErr
	var firstErr error

	var solve func(h *compact.Hierarchy) *tree.Tree
	solve = func(h *compact.Hierarchy) *tree.Tree {
		if h.IsLeaf() {
			return nil
		}
		subs := make([]*tree.Tree, len(h.Children))
		var wg sync.WaitGroup
		for i, ch := range h.Children {
			if ch.IsLeaf() {
				continue
			}
			wg.Add(1)
			go func(i int, ch *compact.Hierarchy) {
				defer wg.Done()
				subs[i] = solve(ch)
			}(i, ch)
		}
		wg.Wait()

		id := int(subID.Add(1)) - 1
		reduceStart := time.Now()
		small, _, err := compact.Reduce(m, h, opt.Reduction)
		if err != nil {
			recordErr(&mu, &firstErr, err)
			return nil
		}
		emit(obs.Event{Kind: obs.PhaseEnd, Phase: "reduce", Worker: id,
			N: small.Len(), Elapsed: time.Since(reduceStart)})
		emit(obs.Event{Kind: obs.SubproblemStart, Worker: id,
			N: small.Len(), Elapsed: time.Since(pipeStart)})
		solveStart := time.Now()
		var groupTree *tree.Tree
		var stats bb.Stats
		var sched pbb.SchedStats
		var cost float64
		optimal := true
		threshold := opt.ParallelThreshold
		if threshold <= 0 {
			threshold = 12
		}
		switch {
		case small.Len() == 1:
			groupTree = tree.New(0)
		case small.Len() >= threshold && opt.Workers > 1:
			// Big subproblem: the parallel engine, as in the paper. It runs
			// with as many workers as the semaphore can spare right now
			// (at least one), so concurrent subproblems share the worker
			// budget instead of multiplying it.
			grant := sem.acquireUpTo(opt.Workers)
			pres, err := pbb.Solve(small, pbb.Options{Options: opt.BB, Workers: grant})
			sem.release(grant)
			if err != nil {
				recordErr(&mu, &firstErr, err)
				return nil
			}
			groupTree, cost, stats = pres.Tree, pres.Cost, pres.Stats
			sched = pres.Sched
			optimal = pres.Optimal
		default:
			grant := sem.acquireUpTo(1)
			sres, err := bb.Solve(small, opt.BB)
			sem.release(grant)
			if err != nil {
				recordErr(&mu, &firstErr, err)
				return nil
			}
			groupTree, cost, stats = sres.Tree, sres.Cost, sres.Stats
			optimal = sres.Optimal
		}
		emit(obs.Event{Kind: obs.SubproblemFinish, Worker: id,
			N: small.Len(), Value: cost, Elapsed: time.Since(solveStart)})
		// Translate group-leaf species back to child row indices: bb
		// preserved row indices as species ids, so nothing to relabel.
		mergeStart := time.Now()
		assembled, err := compact.Graft(groupTree, h, subs)
		if err != nil {
			recordErr(&mu, &firstErr, err)
			return nil
		}
		emit(obs.Event{Kind: obs.PhaseEnd, Phase: "merge", Worker: id,
			N: small.Len(), Elapsed: time.Since(mergeStart)})
		mu.Lock()
		res.Subproblems = append(res.Subproblems, Subproblem{
			Group: append([]int(nil), h.Members...),
			Size:  small.Len(),
			Cost:  cost,
		})
		res.Stats.Add(stats)
		res.Sched.Add(sched)
		if !optimal {
			res.Optimal = false
		}
		mu.Unlock()
		return assembled
	}

	t := solve(hier)
	if firstErr != nil {
		return nil, firstErr
	}
	if t == nil {
		if m.Len() != 1 {
			return nil, fmt.Errorf("core: decomposition produced no tree")
		}
		t = tree.New(0)
	}
	validateStart := time.Now()
	t.SetNames(m.Names())
	res.Tree = t
	res.Cost = t.Cost()
	if err := t.Validate(1e-9); err != nil {
		return nil, fmt.Errorf("core: assembled tree invalid: %w", err)
	}
	emit(obs.Event{Kind: obs.PhaseEnd, Phase: "validate",
		N: m.Len(), Elapsed: time.Since(validateStart)})
	return res, nil
}

func recordErr(mu *sync.Mutex, dst *error, err error) {
	mu.Lock()
	if *dst == nil {
		*dst = err
	}
	mu.Unlock()
}

// CostGap returns (approx − exact) / exact: the relative cost penalty of
// the decomposition the paper bounds at 5% (random data) and 1.5% (mtDNA).
func CostGap(approx, exact float64) float64 {
	if exact == 0 {
		return 0
	}
	return (approx - exact) / exact
}

// RelationPreserved verifies the paper's headline property on a result
// tree: every detected compact set appears as a clade, i.e. for any two
// species inside a compact set and any species outside it, the inside pair
// has the strictly deeper (or equal) LCA. It returns an error naming the
// first violated set.
func RelationPreserved(t *tree.Tree, sets []compact.Set) error {
	for _, s := range sets {
		if err := t.CladeCheck(s); err != nil {
			return fmt.Errorf("core: compact set violated: %w", err)
		}
	}
	return nil
}

// Exact solves the full matrix exactly (no decomposition) and returns the
// optimal cost; a convenience for the cost-comparison experiments.
func Exact(m *matrix.Matrix, workers int) (float64, error) {
	res, err := constructWhole(m, Options{Workers: workers, BB: bb.DefaultOptions()})
	if err != nil {
		return 0, err
	}
	return res.Cost, nil
}

// Infinity guards callers that compare costs before any tree exists.
var Infinity = math.Inf(1)
