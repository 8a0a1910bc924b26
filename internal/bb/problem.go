// Package bb implements Algorithm BBU of Wu, Chao and Tang — the sequential
// branch-and-bound construction of Minimum Ultrametric Trees from distance
// matrices — exactly as the paper builds on it: max–min species relabeling,
// a UPGMM feasible solution as the initial upper bound, the branch rule
// that inserts the next species into every edge (and above the root) of the
// partial topology, the lower bound
//
//	LB(v) = ω(T_v) + ½ · Σ_{i>k} min_{j<i} M[i,j],
//
// and the optional 3-3 relationship constraint applied when the third
// species is inserted.
//
// The branch-and-bound step itself exists once, as Search: the sequential
// and best-first engines here, the parallel engine (internal/pbb), the
// distributed farm (internal/dist) and the cluster simulator
// (internal/cluster) run it over their own frontiers.
package bb

import (
	"fmt"
	"math"

	"evotree/internal/matrix"
	"evotree/internal/tree"
	"evotree/internal/upgma"
)

// MaxSpecies bounds the number of species the branch-and-bound accepts.
// Leaf sets are stored as single-word bitmasks; 64 is far beyond the size
// any exact MUT search can finish anyway (the paper's record is 38).
const MaxSpecies = 64

// Problem is an immutable MUT search instance: the (already relabeled)
// distance matrix plus the precomputed lower-bound tail sums.
type Problem struct {
	n int
	// d holds the permuted distances row-major with stride n, so the hot
	// maxDistSweep scan walks one contiguous row instead of chasing a
	// per-row pointer.
	d    []float64
	perm []int // perm[new] = old species index
	// tail[k] = ½ Σ_{i=k..n-1} min_{j<i} d[i][j]: the minimum extra weight
	// any completion of a k-leaf partial topology must add.
	tail  []float64
	names []string // original species names, indexed by old species id

	// followHalf[k*n+t] = ½ · min_{t' ∈ [k,t)} d[t][t'] (+Inf when the
	// range is empty): the cheapest way species t can join a completion of
	// a k-leaf partial topology next to an earlier-but-still-unplaced
	// species instead of next to the placed tree. The propagation bound's
	// per-species increment is capped by it (see propagate.go).
	followHalf []float64
	// capOrder[k*n : k*n+n−k] lists the unplaced species k..n−1 of a
	// k-leaf node by descending propagation cap followHalf[k][t] − δ_t
	// (ties by index), the order PropagatedLB and PropagatedPrune try
	// them in so that the first cap that cannot matter ends the loop.
	capOrder []int32
	// twinRep[s] = smallest exact twin of s (twinRep[s] == s when none):
	// species whose distance rows agree outside the pair, computed by
	// matrix.TwinClasses on the permuted matrix. Swapping two twins is a
	// matrix automorphism — the handle the dominance rules canonicalize.
	twinRep []int32
	// twinSib[s] = smallest s' < s that is an exact twin of s with
	// d(s,s') equal to s's whole-row minimum, -1 otherwise. When set, the
	// position beside leaf s' dominates every other insertion of s.
	twinSib []int32
	// hasTwins records whether any twin class has two members; without
	// one the twin symmetry rule cannot fire and Expand skips its
	// per-position scan.
	hasTwins bool
}

// NewProblem builds a search instance from m. When useMaxMin is true the
// species are relabeled by the max–min permutation first (Step 1 of BBU);
// otherwise the input order is kept. The matrix must be metric-checkable
// (Check) and have 2..MaxSpecies species.
func NewProblem(m *matrix.Matrix, useMaxMin bool) (*Problem, error) {
	n := m.Len()
	if n < 2 {
		return nil, fmt.Errorf("bb: need at least 2 species, got %d", n)
	}
	if n > MaxSpecies {
		return nil, fmt.Errorf("bb: %d species exceeds the supported maximum %d", n, MaxSpecies)
	}
	if err := m.Check(); err != nil {
		return nil, err
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if useMaxMin {
		perm = m.MaxMinPermutation()
	}
	pm := m.Relabel(perm)
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d[i*n+j] = pm.At(i, j)
		}
	}
	p := &Problem{n: n, d: d, perm: perm, names: m.Names()}
	p.tail = make([]float64, n+1)
	for i := n - 1; i >= 2; i-- {
		minD := math.Inf(1)
		for j := 0; j < i; j++ {
			if d[i*n+j] < minD {
				minD = d[i*n+j]
			}
		}
		p.tail[i] = p.tail[i+1] + minD/2
	}
	p.tail[1] = p.tail[2]
	p.tail[0] = p.tail[2]

	// Follower table for the propagation bound: one backward sweep per
	// species t fills ½·min_{t' ∈ [k,t)} d(t,t') for every k ≤ t.
	p.followHalf = make([]float64, n*n)
	for t := 0; t < n; t++ {
		f := math.Inf(1)
		for k := t; k >= 0; k-- {
			p.followHalf[k*n+t] = f
			if k > 0 {
				if h := d[t*n+k-1] / 2; h < f {
					f = h
				}
			}
		}
	}

	// Cap order for the propagation layer: an insertion sort of each row
	// on caps held in a stack array, so it allocates nothing beyond the
	// table; O(n²) per row at worst and n ≤ MaxSpecies.
	p.capOrder = make([]int32, n*n)
	var caps [MaxSpecies]float64
	for k := 0; k < n; k++ {
		row := p.capOrder[k*n : (k+1)*n-k]
		for i := range row {
			t := int32(k + i)
			c := p.propCap(k, t)
			j := i
			for ; j > 0 && caps[j-1] < c; j-- {
				row[j], caps[j] = row[j-1], caps[j-1]
			}
			row[j], caps[j] = t, c
		}
	}

	// Twin classes (in permuted space) for the dominance rules.
	rep := pm.TwinClasses()
	p.twinRep = make([]int32, n)
	p.twinSib = make([]int32, n)
	for s := 0; s < n; s++ {
		p.twinRep[s] = int32(rep[s])
		p.twinSib[s] = -1
		if rep[s] != s {
			p.hasTwins = true
		}
	}
	for s := 1; s < n; s++ {
		rowMin := math.Inf(1)
		for j := 0; j < n; j++ {
			if j != s && d[s*n+j] < rowMin {
				rowMin = d[s*n+j]
			}
		}
		for j := 0; j < s; j++ {
			if p.twinRep[j] == p.twinRep[s] && d[s*n+j] == rowMin {
				p.twinSib[s] = int32(j)
				break
			}
		}
	}
	return p, nil
}

// N returns the number of species.
func (p *Problem) N() int { return p.n }

// Dist returns the distance between permuted species i and j.
func (p *Problem) Dist(i, j int) float64 { return p.dist(i, j) }

// dist is the unexported row-major accessor the kernel inlines.
func (p *Problem) dist(i, j int) float64 { return p.d[i*p.n+j] }

// Perm returns the relabeling applied to the input matrix
// (perm[new] = old).
func (p *Problem) Perm() []int { return append([]int(nil), p.perm...) }

// Tail returns the lower-bound tail for a partial topology holding the
// first k permuted species.
func (p *Problem) Tail(k int) float64 { return p.tail[k] }

// InitialUpperBound runs UPGMM on the (permuted) matrix and returns the
// feasible tree translated back to original species labels along with its
// cost (Step 3 of BBU).
func (p *Problem) InitialUpperBound() (*tree.Tree, float64) {
	t, cost := upgma.UPGMM(permView{p})
	t = t.RelabelSpecies(p.perm)
	t.SetNames(p.names)
	return t, cost
}

// permView adapts the problem's permuted distances to upgma.Matrix.
type permView struct{ p *Problem }

func (v permView) Len() int            { return v.p.n }
func (v permView) At(i, j int) float64 { return v.p.dist(i, j) }
