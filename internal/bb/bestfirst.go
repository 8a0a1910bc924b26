package bb

// Best-first search: an alternative exploration order to the paper's DFS.
// The frontier is a priority queue keyed by lower bound, so the node most
// likely to lead to the optimum is always expanded next. Best-first
// expands the theoretically minimal number of nodes (no node with
// LB > optimum is ever expanded, versus DFS which may descend into doomed
// subtrees before the bound tightens), at the price of a frontier that can
// grow exponentially large in memory. The ablation-search experiment
// quantifies the trade on this implementation.

// SolveBestFirst runs the branch-and-bound with a best-first frontier.
// Options are honored as in SolveSequential; MaxNodes doubles as a memory
// guard since the frontier can grow large. Because the frontier pops in
// LB order, the first pruned pop ends the search: every open node prunes
// with it.
func (p *Problem) SolveBestFirst(opt Options) *Result {
	return p.solveLocal(opt, &bestFirst{}, false)
}
