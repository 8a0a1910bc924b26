package bb

import (
	"math"
	"math/rand"
	"testing"

	"evotree/internal/matrix"
)

// kernelMatrix returns the deterministic benchmark instance for n species:
// a structureless uniform 0..100 matrix (the hardest regime for the bounds,
// so the search does real branching work at every size). Seed 3 is chosen
// so every n in {10, 13, 16} yields a non-trivial expansion count.
func kernelMatrix(n int) *matrix.Matrix {
	rng := rand.New(rand.NewSource(3))
	return matrix.Random0100(rng, n)
}

// BenchmarkSolveSequential measures the sequential branch-and-bound kernel
// end to end (problem construction excluded): ns/op, B/op and allocs/op are
// the numbers recorded in BENCH_pr2.json.
func BenchmarkSolveSequential(b *testing.B) {
	for _, n := range []int{10, 13, 16} {
		b.Run(benchName(n), func(b *testing.B) {
			p, err := NewProblem(kernelMatrix(n), true)
			if err != nil {
				b.Fatal(err)
			}
			opt := DefaultOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := p.SolveSequential(opt)
				if res.Tree == nil {
					b.Fatal("nil tree")
				}
			}
		})
	}
}

// BenchmarkExpand measures one branching step at a mid-depth node: the
// per-child cost of bound computation, cloning and insertion.
func BenchmarkExpand(b *testing.B) {
	p, err := NewProblem(kernelMatrix(16), true)
	if err != nil {
		b.Fatal(err)
	}
	// Walk to a mid-depth node (K=8) along the best-child path.
	np := p.NewPool()
	v := p.Root()
	for v.K < 8 {
		v = expandAll(p, v, np)[0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		children := expandAll(p, v, np)
		if len(children) == 0 {
			b.Fatal("no children")
		}
		releaseAll(np, children)
	}
}

// BenchmarkPropagate measures the propagation kernel on the nodes a real
// search asks it about: the first 256 incomplete nodes a depth-first
// search pops against the UPGMM bound, on the frontier's uniform n=22
// (generator seed 2200001) and clock n=38 (seed 3800001) instances. bound
// computes PropagatedLB on each; prune asks PropagatedPrune the search's
// question against the same UPGMM bound. One op is one node.
func BenchmarkPropagate(b *testing.B) {
	type sample struct {
		p     *Problem
		np    *NodePool
		ub    float64
		nodes []*PNode
	}
	var samples []sample
	for _, m := range []*matrix.Matrix{
		matrix.Random0100(rand.New(rand.NewSource(2200001)), 22),
		matrix.PerturbedUltrametric(rand.New(rand.NewSource(3800001)), 38, 100, 0.8),
	} {
		p, err := NewProblem(m, true)
		if err != nil {
			b.Fatal(err)
		}
		_, ub := p.InitialUpperBound()
		samples = append(samples, sample{p, p.NewPool(), ub, dfsSample(p, ub, 256)})
	}
	run := func(b *testing.B, visit func(s sample, v *PNode)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; {
			for _, s := range samples {
				for _, v := range s.nodes {
					if i == b.N {
						return
					}
					visit(s, v)
					i++
				}
			}
		}
	}
	b.Run("bound", func(b *testing.B) {
		run(b, func(s sample, v *PNode) { boundSink = s.p.PropagatedLB(v, s.np) })
	})
	b.Run("prune", func(b *testing.B) {
		run(b, func(s sample, v *PNode) { pruneSink = s.p.PropagatedPrune(v, s.ub, false, s.np) })
	})
}

// Benchmark sinks keep the measured calls' results alive.
var (
	boundSink float64
	pruneSink bool
)

// dfsSample returns the first n incomplete nodes a depth-first search
// against ub pops, in the order the solver visits them.
func dfsSample(p *Problem, ub float64, n int) []*PNode {
	var out []*PNode
	stack := Stack{p.Root()}
	for len(out) < n {
		v, _ := stack.Pop()
		if v == nil {
			break
		}
		if v.Complete(p) {
			continue
		}
		out = append(out, v)
		children, _ := p.Expand(v, Constraints{}, ub, false, nil)
		stack.Push(children)
	}
	return out
}

// expandAll and releaseAll adapt the benchmarks to the kernel API so the
// same measurements can be compared across refactors of Expand.
func expandAll(p *Problem, v *PNode, np *NodePool) []*PNode {
	children, _ := p.Expand(v, Constraints{}, math.Inf(1), false, np)
	return children
}

func releaseAll(np *NodePool, children []*PNode) {
	for _, ch := range children {
		np.Put(ch)
	}
}

func benchName(n int) string {
	switch n {
	case 10:
		return "n=10"
	case 13:
		return "n=13"
	case 16:
		return "n=16"
	}
	return "n=?"
}
