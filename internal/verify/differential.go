package verify

import (
	"fmt"
	"math"

	"evotree/internal/matrix"
	"evotree/internal/obs"
)

// DiffConfig tunes the differential harness.
type DiffConfig struct {
	// OracleMax: instances up to this size use the subset-DP oracle as the
	// reference optimum; larger instances fall back to the consensus of
	// the exact engines. Default 14 (the DP handles 16 but CI latency
	// grows 3× per species).
	OracleMax int
	// EnumOracleMax: instances up to this size ALSO run the topology
	// enumeration oracle and cross-check it against the DP. Default 8;
	// 0 keeps the default, negative disables.
	EnumOracleMax int
	// MaxRatio bounds heuristic engines: cost ≤ MaxRatio × optimum.
	// Default 1.5 — deliberately loose; the paper reports ≤ 1.05 on
	// random data, and the harness's job is catching corruption, not
	// enforcing the paper's exact approximation figures.
	MaxRatio float64
	// MaxNodes caps each engine's search when positive. Truncated engines
	// keep their invariant checks but skip cost-equality assertions.
	MaxNodes int64
	// Probe, when non-nil, receives every engine's telemetry events. The
	// harness wires a flight recorder here so a differential failure
	// carries the recorded history of the searches that produced it.
	Probe obs.Probe
}

func (c DiffConfig) withDefaults() DiffConfig {
	if c.OracleMax == 0 {
		c.OracleMax = 14
	}
	if c.EnumOracleMax == 0 {
		c.EnumOracleMax = 8
	}
	if c.MaxRatio == 0 {
		c.MaxRatio = 1.5
	}
	return c
}

// Differential runs every engine on m and checks the full property set:
// oracle agreement (or cross-engine consensus beyond oracle range), all
// tree invariants, heuristic ratio bounds, and compact-set clade
// preservation for decomposition engines.
func Differential(m *matrix.Matrix, engines []Engine, cfg DiffConfig) *InstanceReport {
	cfg = cfg.withDefaults()
	n := m.Len()
	rep := &InstanceReport{N: n, Reference: math.NaN()}
	tol := Tol(m)
	fail := func(engine, prop, format string, args ...any) {
		rep.Failures = append(rep.Failures, Failure{
			Engine: engine, Property: prop, Detail: fmt.Sprintf(format, args...),
		})
	}

	// Ground truth. The oracle trees go through the same invariant
	// checkers as engine output: the oracle must hold itself to the
	// standard it holds the engines to.
	if n <= cfg.OracleMax && n >= 2 {
		ot, oc, err := OracleDP(m)
		if err != nil {
			fail("", "oracle-dp", "%v", err)
		} else {
			rep.Reference, rep.RefSource = oc, "oracle-dp"
			for _, f := range CheckTree(m, ot, oc) {
				f.Engine = "oracle-dp"
				rep.Failures = append(rep.Failures, f)
			}
		}
		if n <= cfg.EnumOracleMax && cfg.EnumOracleMax > 0 {
			et, ec, err := OracleEnum(m)
			switch {
			case err != nil:
				fail("", "oracle-enum", "%v", err)
			case !costsAgree(ec, rep.Reference, tol):
				fail("", "oracle-cross", "enumeration oracle found %g, DP oracle %g", ec, rep.Reference)
			default:
				for _, f := range CheckTree(m, et, ec) {
					f.Engine = "oracle-enum"
					rep.Failures = append(rep.Failures, f)
				}
			}
		}
	}

	// Run the engines.
	for _, e := range engines {
		res, err := e.Run(m, cfg.MaxNodes, cfg.Probe)
		if err != nil {
			res.Err = err
			fail(e.Name, "run", "%v", err)
		}
		rep.Engines = append(rep.Engines, res)
		if !res.Optimal {
			rep.Truncated = true
		}
	}

	// Beyond oracle range the exact engines police each other: the
	// reference is their minimum completed cost, and every completed exact
	// engine must hit it.
	if math.IsNaN(rep.Reference) {
		ref := math.Inf(1)
		for i, e := range engines {
			res := rep.Engines[i]
			if e.Exact && res.Err == nil && res.Optimal && res.Cost < ref {
				ref = res.Cost
			}
		}
		if !math.IsInf(ref, 1) {
			rep.Reference, rep.RefSource = ref, "consensus"
		}
	}

	hasRef := !math.IsNaN(rep.Reference)
	for i, e := range engines {
		res := rep.Engines[i]
		if res.Err != nil {
			continue
		}
		for _, f := range CheckTree(m, res.Tree, res.Cost) {
			f.Engine = e.Name
			rep.Failures = append(rep.Failures, f)
		}
		for _, f := range CheckAccounting(res.Stats) {
			f.Engine = e.Name
			rep.Failures = append(rep.Failures, f)
		}
		if e.Decomposition && res.Tree != nil {
			for _, f := range CheckDecomposition(m, res.Tree) {
				f.Engine = e.Name
				rep.Failures = append(rep.Failures, f)
			}
		}
		// The proof: a search is complete exactly when it abandoned no
		// open node, and only a complete exact search proves its cost.
		if res.Optimal != (res.Stats.Pruned.Budget == 0) {
			fail(e.Name, "stop-accounting", "Optimal=%v with %d budget prunes",
				res.Optimal, res.Stats.Pruned.Budget)
		}
		if e.Exact && res.Optimal != math.IsInf(res.OpenLB, 1) {
			fail(e.Name, "proof-complete", "Optimal=%v with OpenLB %g", res.Optimal, res.OpenLB)
		}
		if !hasRef {
			continue
		}
		// The proof floor never rises above the optimum: min(OpenLB, Cost)
		// for an exact search, OpenLB alone for a decomposition.
		if floor := math.Min(res.OpenLB, res.Cost); e.Exact && floor > rep.Reference+tol {
			fail(e.Name, "proof-floor", "proof floor %g exceeds the %s optimum %g",
				floor, rep.RefSource, rep.Reference)
		}
		if e.Decomposition && res.OpenLB > rep.Reference+tol {
			fail(e.Name, "proof-floor", "OpenLB %g exceeds the %s optimum %g",
				res.OpenLB, rep.RefSource, rep.Reference)
		}
		switch {
		case e.Exact && res.Optimal:
			if !costsAgree(res.Cost, rep.Reference, tol) {
				fail(e.Name, "optimal-cost", "exact engine found %g, %s says %g",
					res.Cost, rep.RefSource, rep.Reference)
			}
		default:
			// Heuristic (or truncated exact) engines: a feasible
			// ultrametric tree can never weigh less than the optimum, and
			// heuristics must stay within the approximation bound.
			if res.Cost < rep.Reference-tol {
				fail(e.Name, "beats-optimum", "cost %g undercuts the %s optimum %g — the tree cannot be feasible",
					res.Cost, rep.RefSource, rep.Reference)
			}
			if e.Exact {
				break // truncated exact engine: no upper bound to enforce
			}
			if limit := rep.Reference * cfg.MaxRatio; res.Cost > limit+tol {
				fail(e.Name, "ratio", "cost %g exceeds %.2f× the optimum %g",
					res.Cost, cfg.MaxRatio, rep.Reference)
			}
		}
	}
	return rep
}
