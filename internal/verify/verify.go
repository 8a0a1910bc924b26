// Package verify is the cross-engine correctness harness: it proves, on
// seeded random instances and golden fixtures, that every tree-construction
// engine in this repository agrees with ground truth and that every
// returned tree actually is what the paper requires — a feasible
// ultrametric tree with minimal heights for its topology, preserving the
// relation structure of the compact sets.
//
// The harness has four layers:
//
//   - Oracles (oracle.go): two independent exhaustive solvers. OracleEnum
//     enumerates all (2n−3)!! rooted binary leaf-labeled topologies and
//     assigns minimal ultrametric heights to each (the literal definition
//     of the MUT problem, n ≤ 9). OracleDP solves the equivalent
//     subset-bipartition recurrence over bitmasks in O(3ⁿ) (n ≤ 16),
//     exploiting that the minimal root height of any topology over a leaf
//     set S is max_{i,j∈S} M[i,j]/2. Neither shares code with the
//     branch-and-bound kernel, so a kernel bug cannot hide in both.
//
//   - Invariant checkers (invariants.go): structural validity,
//     ultrametricity, d_T ≥ M feasibility, cost-equals-edge-weight-sum,
//     leaf-set preservation, minimal-height tightness, and (for the
//     decomposition path) compact-sets-appear-as-clades.
//
//   - A differential harness (engines.go, differential.go): every engine —
//     sequential DFS, best-first, parallel at several worker counts, the
//     whole-matrix core path, the compact-set decomposition, each with and
//     without the 3-3 constraint — runs on the same instance. Exact
//     engines must agree with the oracle (or with each other beyond oracle
//     range) to within floating-point tolerance; heuristic engines must
//     stay within a configured approximation ratio and may never beat the
//     optimum.
//
//   - Metamorphic properties (metamorphic.go): relabeling the species
//     leaves the optimal cost unchanged; scaling every distance by a
//     power of two scales the cost exactly; duplicating a species leaves
//     the optimum unchanged.
//
// cmd/evocheck exposes the same harness as a CLI so CI and humans run
// identical checks.
package verify

import (
	"fmt"
	"math"

	"evotree/internal/bb"
	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/tree"
)

// DefaultTol is the absolute floating-point slack allowed between costs
// computed by different engines on the same instance, per unit of matrix
// scale. Engines sum the same heights in different orders, so exact
// agreement to the last bit is not guaranteed.
const DefaultTol = 1e-9

// Tol returns the cost-comparison tolerance for an instance: DefaultTol
// scaled by the magnitude of the largest distance (at least 1), so integer
// matrices in 0..100 and tiny float matrices are both handled sanely.
func Tol(m *matrix.Matrix) float64 {
	scale := m.MaxOff() * float64(m.Len())
	if scale < 1 {
		scale = 1
	}
	return DefaultTol * scale
}

// costsAgree reports |a−b| ≤ tol, treating two infinities as agreeing.
func costsAgree(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol
}

// Failure describes one violated property on one instance.
type Failure struct {
	Engine   string // engine that produced the offending result ("" = instance-level)
	Property string // short property name, e.g. "feasible", "oracle-cost"
	Detail   string // human-readable diagnosis
}

func (f Failure) String() string {
	if f.Engine == "" {
		return fmt.Sprintf("[%s] %s", f.Property, f.Detail)
	}
	return fmt.Sprintf("[%s/%s] %s", f.Engine, f.Property, f.Detail)
}

// EngineResult is one engine's output on one instance.
type EngineResult struct {
	Name    string
	Cost    float64
	Tree    *tree.Tree
	Optimal bool // false when a node/time budget truncated the search
	// Stats carries the engine's aggregated search counters, so the
	// harness can assert the node-accounting identity (see
	// CheckAccounting) on top of the tree properties.
	Stats bb.Stats
	Err   error
}

// CheckAccounting verifies the search engines' node-accounting identity
// on one engine's statistics:
//
//	Generated + Roots == Expanded + Pruned.Total() + Completed
//
// i.e. every node a search created (a generated child or a seeded root)
// was consumed exactly once — expanded, attributed to exactly one prune
// rule, or consumed as a complete topology. The identity holds for truncated searches too (abandoned nodes count
// as budget prunes), so a missed or double-counted prune site in any
// engine shows up here differentially.
func CheckAccounting(s bb.Stats) []Failure {
	var fails []Failure
	if got, want := s.Generated+s.Roots, s.Expanded+s.Pruned.Total()+s.Completed; got != want {
		fails = append(fails, Failure{Property: "prune-accounting", Detail: fmt.Sprintf(
			"generated+roots = %d+%d = %d, but expanded+pruned+completed = %d+%d+%d = %d (per-rule: %+v)",
			s.Generated, s.Roots, got, s.Expanded, s.Pruned.Total(), s.Completed, want, s.Pruned)})
	}
	// Every attribution bucket (including the propagation/dominance rules)
	// must be a plain count: a negative value means a double-put or a
	// mis-signed accumulation somewhere in an engine's prune sites.
	for _, rule := range obs.Rules {
		if c := s.Pruned.ByRule(rule); c < 0 {
			fails = append(fails, Failure{Property: "prune-negative", Detail: fmt.Sprintf(
				"Pruned.%s = %d is negative", rule, c)})
		}
	}
	return fails
}

// InstanceReport is the outcome of running the differential harness on a
// single matrix.
type InstanceReport struct {
	N         int
	Reference float64 // best known optimal cost for the instance
	RefSource string  // "oracle-dp", "oracle-enum", or "consensus"
	Engines   []EngineResult
	Failures  []Failure
	Truncated bool // some engine hit its budget; equality not asserted for it
}

// Failed reports whether any property was violated.
func (r *InstanceReport) Failed() bool { return len(r.Failures) > 0 }
