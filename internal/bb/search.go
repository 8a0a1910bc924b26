package bb

import (
	"container/heap"
	"math"
	"sync/atomic"
	"time"

	"evotree/internal/obs"
)

// The branch-and-bound step of Algorithm BBU exists once, here: Search
// pops a node from an engine's Frontier, bounds it against the engine's
// Incumbent, expands it, triages the children and records solutions.
// The engines differ only in where the next node comes from — a DFS
// stack (SolveSequential and the farm worker), an LB heap
// (SolveBestFirst), a breadth-first level queue (the master phase of the
// parallel and distributed engines, Slice), or the parallel engine's
// work-stealing deques.

// Prune reports whether a node with lower bound lb cannot improve on the
// incumbent ub — or, when collecting all optima, cannot match it. It is
// the one prune predicate of every engine: lb > ub always prunes, and the
// tie lb == ub prunes unless collectAll.
func Prune(lb, ub float64, collectAll bool) bool {
	return lb > ub || (!collectAll && lb == ub)
}

// Incumbent is an engine's upper bound: the bound the search prunes
// against and the sink for the complete topologies it finds.
type Incumbent interface {
	// Bound returns the current upper bound.
	Bound() float64
	// Offer records a complete topology the prune predicate let through
	// and returns the bound after it. st is the offering search's
	// statistics (UBUpdates, Solutions, and the expansion count that
	// telemetry reports).
	Offer(v *PNode, st *Stats) float64
}

// Frontier is an engine's pool of open nodes: its whole scheduling
// discipline.
type Frontier interface {
	// Pop returns the next node to visit and the number of open nodes
	// the frontier held, counting it; nil when the frontier has no more
	// work for this search.
	Pop() (v *PNode, open int)
	// Push receives the surviving incomplete children of one expansion,
	// sorted by ascending lower bound. It is called once per expansion,
	// also when no child survived.
	Push(kids []*PNode)
	// MinLB returns the best lower bound among the held nodes, +Inf when
	// there are none. Called only for gap samples.
	MinLB() float64
}

// pollEvery is how many pops pass between two context checks. The gate
// counts pops, not expansions: long pruning streaks leave Stats.Expanded
// frozen, and gating on it would either re-poll every pop or never again.
const pollEvery = 64

// Search runs the branch-and-bound step for one engine over the frontiers
// it is given. It is not safe for concurrent use: a parallel engine runs
// one Search per worker, all sharing one Incumbent and one budget.
type Search struct {
	Stats Stats
	// OpenLB is the best lower bound among the nodes the search abandoned
	// when the budget or the context stopped it; +Inf when none.
	OpenLB float64
	// WorstFirst triages the children of an expansion from the highest
	// lower bound down, the order a DFS stack pushes them in. Only the
	// order in which complete children are recorded depends on it.
	WorstFirst bool

	p        *Problem
	np       *NodePool
	inc      Incumbent
	opt      Options
	budget   *atomic.Int64
	ordered  bool // the frontier pops in ascending LB order
	gs       gapSampler
	iter     int64
	stopped  bool
	exitOpen int64 // open nodes when the search stopped
}

// NewSearch returns a search of p under opt's rules (Constraints,
// Propagate, CollectAll) and context, recording solutions in inc and
// taking nodes from np. budget, when non-nil, is the expansion budget:
// each expansion draws one unit, and the search stops once it runs out.
// Searches that share a budget share the limit. opt.MaxNodes is not read;
// see NewBudget.
func (p *Problem) NewSearch(opt Options, inc Incumbent, np *NodePool, budget *atomic.Int64) *Search {
	return &Search{OpenLB: math.Inf(1), p: p, np: np, inc: inc, opt: opt, budget: budget}
}

// NewBudget returns an expansion budget of maxNodes units, nil (no limit)
// when maxNodes is not positive.
func NewBudget(maxNodes int64) *atomic.Int64 {
	if maxNodes <= 0 {
		return nil
	}
	b := &atomic.Int64{}
	b.Store(maxNodes)
	return b
}

// SampleGap enables periodic obs.GapSample snapshots (Options.GapPeriod)
// measured from start. It is a no-op for a nil probe or a zero period.
func (s *Search) SampleGap(probe obs.Probe, period time.Duration, start time.Time) {
	s.gs = newGapSampler(probe, period, start)
}

// Root returns the BBT root, counted as the search's root, and takes the
// initial gap sample.
func (s *Search) Root() *PNode {
	v := s.p.Root()
	s.Stats.Roots++
	if s.gs.enabled() {
		s.gs.sampleNow(s.inc.Bound(), v.LB, 0, 1)
	}
	return v
}

// Stopped reports whether the budget or the context stopped the search.
// The node in hand was abandoned then; the engine abandons the rest of
// its frontier with Abandon.
func (s *Search) Stopped() bool { return s.stopped }

// Abandon counts nodes as budget prunes — open nodes a truncated search
// leaves unexplored — and folds their lower bounds into OpenLB.
func (s *Search) Abandon(nodes ...*PNode) {
	s.Stats.Pruned.Budget += int64(len(nodes))
	for _, v := range nodes {
		if v.LB < s.OpenLB {
			s.OpenLB = v.LB
		}
	}
}

// Run visits nodes popped from f until f runs dry or the search stops.
func (s *Search) Run(f Frontier) {
	for s.Step(f) {
	}
}

// Step visits one node popped from f and reports whether the search can
// go on: false once f runs dry or the search has stopped. An engine that
// interleaves several searches on one thread advances each by Step.
func (s *Search) Step(f Frontier) bool {
	if s.stopped {
		return false
	}
	v, open := f.Pop()
	return v != nil && s.visit(v, open, f)
}

// visit is the branch-and-bound step on one popped node. It reports false
// when the search must end: stopped, or an LB-ordered frontier whose best
// node is pruned (then every open node is).
func (s *Search) visit(v *PNode, open int, f Frontier) bool {
	if open > s.Stats.MaxPoolLen {
		s.Stats.MaxPoolLen = open
	}
	s.iter++
	if s.opt.Ctx != nil && s.iter%pollEvery == 1 {
		select {
		case <-s.opt.Ctx.Done():
			s.stop(v, open)
			return false
		default:
		}
	}
	ub := s.inc.Bound()
	if s.gs.enabled() && s.iter%1024 == 0 {
		s.gs.maybeSample(ub, math.Min(v.LB, f.MinLB()), s.Stats.Expanded, int64(open))
	}
	if Prune(v.LB, ub, s.opt.CollectAll) {
		// v was viable when it was pushed; the incumbent improved since.
		if s.ordered {
			s.Stats.Pruned.Incumbent += int64(open)
			return false
		}
		s.Stats.Pruned.Incumbent++
		s.np.Put(v)
		return true
	}
	if v.Complete(s.p) {
		s.Stats.Completed++
		s.inc.Offer(v, &s.Stats)
		s.np.Put(v)
		return true
	}
	if s.opt.Propagate && s.p.PropagatedPrune(v, ub, s.opt.CollectAll, s.np) {
		s.Stats.Pruned.Ultrametric++
		s.np.Put(v)
		return true
	}
	// The budget is drawn after the prunes: a node the bounds kill costs
	// no share of it.
	if s.budget != nil && s.budget.Add(-1) < 0 {
		s.stop(v, open)
		return false
	}
	s.Stats.Expanded++
	kids, pruned := s.p.Expand(v, s.opt.Constraints, ub, s.opt.CollectAll, s.np)
	s.Stats.CountExpand(len(kids), pruned)
	s.np.Put(v)
	f.Push(s.triage(kids, ub))
	return true
}

// stop ends the search with v in hand and open nodes outstanding.
func (s *Search) stop(v *PNode, open int) {
	s.stopped = true
	s.exitOpen = int64(open)
	s.Abandon(v)
}

// triage records the complete children of an expansion and returns the
// incomplete ones, ascending by LB. Every child of one expansion places
// the same number of species, so a layer is either all incomplete —
// Expand already pruned it against ub — or all complete, where each
// recorded solution may tighten the bound for the siblings after it.
func (s *Search) triage(kids []*PNode, ub float64) []*PNode {
	if len(kids) == 0 || kids[0].K < s.p.n {
		return kids
	}
	for i := range kids {
		ch := kids[i]
		if s.WorstFirst {
			ch = kids[len(kids)-1-i]
		}
		if Prune(ch.LB, ub, s.opt.CollectAll) {
			// An earlier sibling's solution tightened the bound.
			s.Stats.Pruned.Incumbent++
		} else {
			s.Stats.Completed++
			ub = s.inc.Offer(ch, &s.Stats)
		}
		s.np.Put(ch)
	}
	return nil
}

// Fanout is how many open nodes per worker the master phase of the
// parallel engines slices off before dispatch: the paper's "2 times of
// total nodes in the computing environment". Slice callers pass
// Fanout × workers.
const Fanout = 2

// Slice is the master phase of the parallel and distributed engines
// (Steps 1–5 of the parallel algorithm): breadth-first branching from the
// root until at least target nodes are open, so the frontier can feed
// every worker. It returns the open nodes the incumbent does not prune,
// sorted by ascending LB. When the budget or the context stops the
// search, every open node is abandoned and Slice returns nil.
func (s *Search) Slice(target int) []*PNode {
	q := &levelQueue{nodes: []*PNode{s.Root()}, target: target}
	s.Run(q)
	if s.stopped {
		s.Abandon(q.nodes...)
		return nil
	}
	ub := s.inc.Bound()
	keep := q.nodes[:0]
	for _, v := range q.nodes {
		if Prune(v.LB, ub, s.opt.CollectAll) {
			s.Stats.Pruned.Incumbent++
			s.np.Put(v)
			continue
		}
		keep = append(keep, v)
	}
	// The queue holds Expand's already-ordered child runs, so the
	// insertion sort finishes in near-linear time.
	SortByLB(keep)
	return keep
}

// levelQueue is the master phase's breadth-first frontier: it expands the
// shallowest node first, so the frontier stays level, and runs dry once
// target nodes are open.
type levelQueue struct {
	nodes  []*PNode
	target int
}

func (q *levelQueue) Pop() (*PNode, int) {
	n := len(q.nodes)
	if n == 0 || n >= q.target {
		return nil, 0
	}
	v := q.nodes[0]
	q.nodes = q.nodes[1:]
	return v, n
}
func (q *levelQueue) Push(kids []*PNode) { q.nodes = append(q.nodes, kids...) }
func (q *levelQueue) MinLB() float64     { return minLB(q.nodes) }

// Stack is the depth-first frontier: the newest child is popped first,
// and each expansion's children are pushed worst-first so the most
// promising one is popped next. Pair it with Search.WorstFirst.
type Stack []*PNode

func (st *Stack) Pop() (*PNode, int) {
	n := len(*st)
	if n == 0 {
		return nil, 0
	}
	v := (*st)[n-1]
	*st = (*st)[:n-1]
	return v, n
}

func (st *Stack) Push(kids []*PNode) {
	for i := len(kids) - 1; i >= 0; i-- {
		*st = append(*st, kids[i])
	}
}

func (st *Stack) MinLB() float64 { return minLB(*st) }
func (st *Stack) open() []*PNode { return *st }

// LBHeap is a min-heap of nodes keyed by lower bound (ties: deeper node
// first, which drives toward complete solutions and keeps the heap
// small), used through container/heap: the best-first frontier, and the
// parallel engine's global seed/overflow ring.
type LBHeap []*PNode

func (h LBHeap) Len() int { return len(h) }
func (h LBHeap) Less(i, j int) bool {
	if h[i].LB != h[j].LB {
		return h[i].LB < h[j].LB
	}
	return h[i].K > h[j].K
}
func (h LBHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *LBHeap) Push(x any)   { *h = append(*h, x.(*PNode)) }
func (h *LBHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}

// bestFirst is the best-first frontier over an LBHeap.
type bestFirst struct{ h LBHeap }

func (b *bestFirst) Pop() (*PNode, int) {
	n := len(b.h)
	if n == 0 {
		return nil, 0
	}
	return heap.Pop(&b.h).(*PNode), n
}

func (b *bestFirst) Push(kids []*PNode) {
	for _, ch := range kids {
		heap.Push(&b.h, ch)
	}
}

func (b *bestFirst) MinLB() float64 {
	if len(b.h) == 0 {
		return math.Inf(1)
	}
	return b.h[0].LB
}
func (b *bestFirst) open() []*PNode { return b.h }

// minLB returns the smallest lower bound among nodes, +Inf for none.
func minLB(nodes []*PNode) float64 {
	best := math.Inf(1)
	for _, v := range nodes {
		if v.LB < best {
			best = v.LB
		}
	}
	return best
}
