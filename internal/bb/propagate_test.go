package bb

import (
	"math"
	"math/rand"
	"testing"

	"evotree/internal/matrix"
)

// minCompletion exhaustively completes the partial topology v and returns
// the cheapest complete cost — the quantity any sound lower bound for v
// must stay at or below. Exponential; test sizes only.
func minCompletion(p *Problem, v *PNode) float64 {
	if v.Complete(p) {
		return v.Cost
	}
	best := math.Inf(1)
	md := make([]float64, v.Positions())
	p.maxDistSweep(v, v.K, md)
	for pos := 0; pos < v.Positions(); pos++ {
		if c := minCompletion(p, p.insert(v, v.K, pos, nil, md)); c < best {
			best = c
		}
	}
	return best
}

// TestPropagatedLBSoundness checks the propagation bound against brute
// force on random matrices of every harness family: for partial nodes at
// every depth, v.LB ≤ PropagatedLB(v) ≤ min completion cost. The lower
// inequality pins that propagation only strengthens the tail bound; the
// upper one is the exactness-preservation proof obligation.
func TestPropagatedLBSoundness(t *testing.T) {
	gens := map[string]func(rng *rand.Rand, n int) *matrix.Matrix{
		"uniform": matrix.Random0100,
		"metric": func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.RandomMetric(rng, n, 50, 100)
		},
		"perturbed": func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.PerturbedUltrametric(rng, n, 100, 0.1)
		},
		"ultrametric": func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.RandomUltrametric(rng, n, 100)
		},
	}
	const n, tol = 7, 1e-9
	for kind, gen := range gens {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, err := NewProblem(gen(rng, n), true)
			if err != nil {
				t.Fatal(err)
			}
			np := p.NewPool()
			// Random descent: check every node along one root-to-leaf path
			// of the BBT, plus every sibling generated on the way.
			v := p.Root()
			for !v.Complete(p) {
				children, _ := p.Expand(v, Constraints{}, math.Inf(1), true, np)
				for _, ch := range children {
					plb := p.PropagatedLB(ch, np)
					if plb < ch.LB-tol {
						t.Fatalf("%s seed=%d K=%d: PropagatedLB %g below plain LB %g",
							kind, seed, ch.K, plb, ch.LB)
					}
					if min := minCompletion(p, ch); plb > min+tol {
						t.Fatalf("%s seed=%d K=%d: PropagatedLB %g exceeds cheapest completion %g",
							kind, seed, ch.K, plb, min)
					}
				}
				v = children[rng.Intn(len(children))]
			}
		}
	}
}

// TestPropagatedLBTightensOnPerturbed checks the bound actually bites
// where it is designed to: on near-ultrametric matrices some node of the
// search must get a strictly larger bound than the plain tail gives it
// (otherwise the layer is dead code by construction).
func TestPropagatedLBTightensOnPerturbed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, err := NewProblem(matrix.PerturbedUltrametric(rng, 12, 100, 0.1), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	improved := false
	var walk func(v *PNode, depth int)
	walk = func(v *PNode, depth int) {
		if improved || v.Complete(p) || depth > 6 {
			return
		}
		if p.PropagatedLB(v, np) > v.LB {
			improved = true
			return
		}
		children, _ := p.Expand(v, Constraints{}, math.Inf(1), true, nil)
		for _, ch := range children {
			walk(ch, depth+1)
		}
	}
	walk(p.Root(), 0)
	if !improved {
		t.Fatal("propagation bound never exceeded the plain tail bound on a perturbed-ultrametric instance")
	}
}

// TestPropagatedLBZeroAlloc pins the no-new-allocations contract of the
// propagation layer: with a warm pool, re-bounding a node allocates
// nothing.
func TestPropagatedLBZeroAlloc(t *testing.T) {
	p, err := NewProblem(kernelMatrix(12), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	v := bestChildDescent(p, np, 6)
	p.PropagatedLB(v, np) // warm the scratch slices
	allocs := testing.AllocsPerRun(200, func() {
		p.PropagatedLB(v, np)
	})
	if allocs != 0 {
		t.Fatalf("PropagatedLB allocates %.0f objects on a warm pool, want 0", allocs)
	}
}

// bestChildDescent follows the best child from the root down to a node
// with k placed species, returning the other children to np.
func bestChildDescent(p *Problem, np *NodePool, k int) *PNode {
	v := p.Root()
	for v.K < k {
		children := expandAll(p, v, np)
		releaseAll(np, children[1:])
		v = children[0]
	}
	return v
}

// twinMatrix builds an ultrametric-ish matrix with planted exact twins:
// base species at mutual distance drawn from an ultrametric, plus dup
// copies of species 0 at tiny mutual distance — the automorphism-rich
// adversary for the dominance rules.
func twinMatrix(rng *rand.Rand, base, dups int) *matrix.Matrix {
	um := matrix.RandomUltrametric(rng, base, 100)
	n := base + dups
	m := matrix.New(n)
	for i := 0; i < base; i++ {
		for j := i + 1; j < base; j++ {
			m.Set(i, j, um.At(i, j))
		}
	}
	for k := 0; k < dups; k++ {
		c := base + k
		// Copy species 0's row; copies sit at distance 1 from species 0
		// and from each other (smaller than any base distance).
		for j := 1; j < base; j++ {
			m.Set(c, j, um.At(0, j))
		}
		m.Set(c, 0, 1)
		for l := 0; l < k; l++ {
			m.Set(c, base+l, 1)
		}
	}
	return m
}

// TestDominanceRulesPreserveOptimum solves twin-rich and uniform matrices
// with the dominance rules on and off: costs must match exactly, the
// Dominance bucket must fire on the twin-rich family, and the accounting
// identity must close in both configurations.
func TestDominanceRulesPreserveOptimum(t *testing.T) {
	check := func(t *testing.T, m *matrix.Matrix, wantFired bool) {
		t.Helper()
		// Suppress the UPGMM seed: on these symmetric instances it is often
		// already optimal, and a tight incumbent ends the search at the root
		// before any insertion rule can fire.
		off := DefaultOptions()
		off.NoInitialUB = true
		on := off
		on.Dominance = true
		roff, err := Solve(m, off)
		if err != nil {
			t.Fatal(err)
		}
		ron, err := Solve(m, on)
		if err != nil {
			t.Fatal(err)
		}
		if roff.Cost != ron.Cost {
			t.Fatalf("dominance changed the optimum: %g (off) vs %g (on)", roff.Cost, ron.Cost)
		}
		if wantFired && ron.Stats.Pruned.Dominance == 0 {
			t.Fatal("twin-rich instance fired no dominance prunes")
		}
		for _, s := range []Stats{roff.Stats, ron.Stats} {
			if got, want := s.Generated+s.Roots, s.Expanded+s.Pruned.Total()+s.Completed; got != want {
				t.Fatalf("accounting identity broken: generated+roots %d != consumed %d (%+v)", got, want, s.Pruned)
			}
		}
	}
	t.Run("planted-twins", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			check(t, twinMatrix(rng, 6, 3), true)
		}
	})
	t.Run("all-equal", func(t *testing.T) {
		m := matrix.New(8)
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				m.Set(i, j, 10)
			}
		}
		// Every species is everyone's twin: the rules collapse the factorial
		// insertion symmetry to a single canonical order.
		check(t, m, true)
	})
	t.Run("uniform-no-twins", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			check(t, matrix.Random0100(rng, 9), false)
		}
	})
}

// TestDominanceShrinksTwinSearch quantifies the symmetry win: on a
// twin-rich instance whose base distances are uniform noise (loose bounds,
// so the plain search genuinely explores) the dominance rules must expand
// strictly fewer nodes. The twin distance is moderate on purpose: tiny
// twin distances make every off-twin placement so expensive the plain
// bound already kills it, and the symmetry rule would have nothing left
// to save.
func TestDominanceShrinksTwinSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := matrix.Random0100(rng, 8)
	n := 11
	m := matrix.New(n)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			m.Set(i, j, base.At(i, j))
		}
	}
	for k := 8; k < n; k++ {
		for j := 1; j < 8; j++ {
			m.Set(k, j, base.At(0, j))
		}
		m.Set(k, 0, 20)
		for l := 8; l < k; l++ {
			m.Set(k, l, 20)
		}
	}
	off := DefaultOptions()
	on := off
	on.Dominance = true
	roff, err := Solve(m, off)
	if err != nil {
		t.Fatal(err)
	}
	ron, err := Solve(m, on)
	if err != nil {
		t.Fatal(err)
	}
	if ron.Stats.Expanded >= roff.Stats.Expanded {
		t.Fatalf("dominance did not shrink the search: %d expanded with rules vs %d without",
			ron.Stats.Expanded, roff.Stats.Expanded)
	}
}

// TestCollectAllDisablesDominance pins the documented CollectAll contract:
// the rules lose alternate optima, so a collect-all solve must keep them
// off and find the full optimum set even with Dominance requested.
func TestCollectAllDisablesDominance(t *testing.T) {
	m := matrix.New(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			m.Set(i, j, 10)
		}
	}
	plain := DefaultOptions()
	plain.CollectAll = true
	ref, err := Solve(m, plain)
	if err != nil {
		t.Fatal(err)
	}
	ruled := plain
	ruled.Dominance = true
	got, err := Solve(m, ruled)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trees) != len(ref.Trees) {
		t.Fatalf("CollectAll with Dominance found %d optima, want %d", len(got.Trees), len(ref.Trees))
	}
	if got.Stats.Pruned.Dominance != 0 {
		t.Fatalf("CollectAll solve recorded %d dominance prunes, want 0", got.Stats.Pruned.Dominance)
	}
}

// referencePropagatedLB is the propagation bound computed the plain way:
// every unplaced species' undercharge in full, no skips, no early exits.
// PropagatedLB must return exactly this value.
func referencePropagatedLB(p *Problem, v *PNode) float64 {
	if v.Complete(p) {
		return v.LB
	}
	md := make([]float64, v.Positions())
	extra := 0.0
	for t := v.K; t < p.n; t++ {
		delta := p.tail[t] - p.tail[t+1]
		p.maxDistSweep(v, t, md)
		minSpend := p.followHalf[v.K*p.n+t]
		var walk func(x int32, acc float64)
		walk = func(x int32, acc float64) {
			hx, half := v.height[x], md[x]/2
			val, a := hx+acc, acc
			if half > hx {
				val, a = half+acc, acc+(half-hx)
			}
			minSpend = math.Min(minSpend, val)
			if l := v.left[x]; l != -1 {
				walk(l, a)
				walk(v.right[x], a)
			}
		}
		walk(v.root, 0)
		extra = math.Max(extra, minSpend-delta)
	}
	return v.LB + extra
}

// checkPruneMatchesBound requires PropagatedLB(v) to equal the reference
// bound bit for bit and PropagatedPrune to answer exactly as Prune on
// that bound, for upper bounds at the bound, one ulp either side of it,
// at v.LB, at +Inf and at every species' cap (where exit 1 turns), with
// and without collectAll.
func checkPruneMatchesBound(tb testing.TB, p *Problem, v *PNode, np *NodePool) {
	tb.Helper()
	b := p.PropagatedLB(v, np)
	if ref := referencePropagatedLB(p, v); b != ref {
		tb.Fatalf("K=%d: PropagatedLB %v, reference %v", v.K, b, ref)
	}
	ubs := []float64{b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)), v.LB, math.Inf(1)}
	for t := v.K; t < p.n; t++ {
		if c := v.LB + p.propCap(v.K, int32(t)); !math.IsInf(c, 1) {
			ubs = append(ubs, c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1)))
		}
	}
	for _, ub := range ubs {
		for _, all := range []bool{false, true} {
			if got, want := p.PropagatedPrune(v, ub, all, np), Prune(b, ub, all); got != want {
				tb.Fatalf("K=%d ub=%v collectAll=%v: PropagatedPrune %v, Prune(PropagatedLB=%v) %v",
					v.K, ub, all, got, b, want)
			}
		}
	}
}

// tieMatrix draws a small-integer matrix full of distance ties and zeros,
// with some rows duplicating an earlier species' row.
func tieMatrix(rng *rand.Rand, n int) *matrix.Matrix {
	m := matrix.New(n)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Set(i, j, float64(rng.Intn(5)))
		}
	}
	for i := 1; i < n; i++ {
		if rng.Intn(3) == 0 {
			src := rng.Intn(i)
			for j := 0; j < n; j++ {
				if j != i && j != src {
					m.Set(i, j, m.At(src, j))
				}
			}
		}
	}
	return m
}

// TestPropagatedPruneMatchesBound walks random BBT paths on every
// soundness family plus tie-heavy integer matrices and checks, at every
// node on the path and every sibling generated on the way, that the
// yes/no prune test agrees with pruning on the full bound.
func TestPropagatedPruneMatchesBound(t *testing.T) {
	gens := map[string]func(rng *rand.Rand, n int) *matrix.Matrix{
		"uniform": matrix.Random0100,
		"metric": func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.RandomMetric(rng, n, 50, 100)
		},
		"perturbed": func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.PerturbedUltrametric(rng, n, 100, 0.1)
		},
		"ultrametric": func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.RandomUltrametric(rng, n, 100)
		},
		"ties": tieMatrix,
	}
	for kind, gen := range gens {
		for _, n := range []int{5, 9, 14} {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p, err := NewProblem(gen(rng, n), true)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", kind, n, seed, err)
				}
				np := p.NewPool()
				for path := 0; path < 4; path++ {
					v := p.Root()
					checkPruneMatchesBound(t, p, v, np)
					for !v.Complete(p) {
						children, _ := p.Expand(v, Constraints{}, math.Inf(1), true, np)
						for _, ch := range children {
							checkPruneMatchesBound(t, p, ch, np)
						}
						v = children[rng.Intn(len(children))]
					}
				}
			}
		}
	}
}

// TestPropagatedPruneZeroAlloc pins the prune test's no-allocation
// contract: with a warm pool, answering it allocates nothing, whichever
// exit it takes.
func TestPropagatedPruneZeroAlloc(t *testing.T) {
	p, err := NewProblem(kernelMatrix(12), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	v := bestChildDescent(p, np, 6)
	b := p.PropagatedLB(v, np) // warm the scratch slices
	ubs := []float64{b, math.Nextafter(b, math.Inf(-1)), v.LB, math.Inf(1)}
	allocs := testing.AllocsPerRun(200, func() {
		for _, ub := range ubs {
			p.PropagatedPrune(v, ub, false, np)
		}
	})
	if allocs != 0 {
		t.Fatalf("PropagatedPrune allocates %.0f objects on a warm pool, want 0", allocs)
	}
}
