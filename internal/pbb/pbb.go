// Package pbb is the parallel branch-and-bound engine of the papers: a
// master/worker search over goroutines in which
//
//   - the master relabels the species (max–min permutation), seeds the
//     upper bound with UPGMM, applies the 3-3 constraint to the third
//     species, branches the BBT until at least 2× the number of computing
//     nodes of subproblems exist, sorts them by lower bound, and dispatches
//     them cyclically;
//   - every worker runs depth-first search over its own work-stealing
//     deque, prunes against the shared global upper bound, publishes strict
//     improvements to all other workers immediately, and — when it drains —
//     refills from the small global seed/overflow ring or steals the
//     least promising node from a random victim.
//
// The load-balancing layer modernizes the paper's master/slave global-pool
// scheme: instead of donating worst nodes to a mutex-guarded global pool,
// each worker owns a Chase–Lev deque whose top end always holds its
// oldest, highest-lower-bound subproblem, and idle workers steal from
// there — the same "move the least promising work" discipline, with no
// lock on any hot path. The shared upper bound is an atomic (float64 bits)
// read by a single load, termination is detected by atomic in-flight
// counting, and idle workers spin briefly before parking.
//
// The master phase (bb.Search.Slice) and every worker run the shared
// branch-and-bound step of bb.Search; this package supplies only the
// scheduling — the deques, the ring, stealing, parking and termination —
// and the shared incumbent.
//
// Because an improvement found by any worker prunes the others' subtrees
// at once, the engine explores fewer nodes than the sequential search on
// many instances — the effect behind the super-linear speedups reported in
// the companion paper.
package pbb

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
	"evotree/internal/obs"
)

// Options configure a parallel solve. The embedded bb.Options apply to the
// whole search: MaxNodes is one expansion budget shared by the master phase
// and every worker, and Ctx cancels the master's branching loop as well as
// every worker. Either trigger returns the incumbent with Optimal=false.
type Options struct {
	bb.Options
	// Workers is the number of computing nodes (goroutines). Zero or
	// negative means 1.
	Workers int
	// InitialFanout is how many subproblems per worker the master creates
	// before dispatching. Zero or negative means bb.Fanout, the paper's 2.
	InitialFanout int
}

// DefaultOptions mirrors the papers' setup with the given worker count.
func DefaultOptions(workers int) Options {
	return Options{Options: bb.DefaultOptions(), Workers: workers, InitialFanout: bb.Fanout}
}

// Result extends the sequential result with parallel bookkeeping.
type Result struct {
	bb.Result
	WorkerStats []bb.Stats // per-worker search statistics
	PoolGets    int64      // subproblems pulled from the global seed/overflow ring
	PoolPuts    int64      // subproblems added to the ring (master dispatch + overflow donations)
	MasterNodes int        // subproblems created by the master before dispatch
	Sched       SchedStats // work-stealing scheduler traffic (steals, parks, donations)
}

// Solve runs the parallel branch-and-bound on m.
func Solve(m *matrix.Matrix, opt Options) (*Result, error) {
	p, err := bb.NewProblem(m, opt.UseMaxMin)
	if err != nil {
		return nil, err
	}
	return SolveProblem(p, opt), nil
}

// SolveProblem runs the parallel search on an existing problem instance.
func SolveProblem(p *bb.Problem, opt Options) *Result {
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	if opt.InitialFanout < 1 {
		opt.InitialFanout = bb.Fanout
	}
	res := &Result{WorkerStats: make([]bb.Stats, opt.Workers)}
	start := time.Now()
	probe := opt.Probe
	bb.EmitStart(probe, p.N(), opt.Options)
	seed := p.SeedIncumbent(opt.Options, start)
	inc := newIncumbent(p.NewBest(seed, opt.Options, start))

	// Master phase: breadth-first branching until the frontier is large
	// enough to feed every worker (Steps 1–5). The expansion budget
	// (Options.MaxNodes) is shared by the master and every worker, each
	// expansion drawing one unit, and a master stopped by the budget or
	// the context hands the workers nothing.
	budget := bb.NewBudget(opt.MaxNodes)
	master := p.NewSearch(opt.Options, inc.as(obs.MasterWorker), p.NewPool(), budget)
	master.SampleGap(probe, opt.GapPeriod, start)
	frontier := master.Slice(opt.InitialFanout * opt.Workers)
	res.MasterNodes = len(frontier)

	// Step 6: cyclic dispatch; a 1/(workers+1) share stays in the global
	// ring (the paper's master "preserves 1/p nodes in GP"), the rest is
	// dealt into the workers' deques before they start.
	sched := newScheduler(opt.Workers, probe, start)
	locals := make([][]*bb.PNode, opt.Workers)
	for i, v := range frontier {
		slot := i % (opt.Workers + 1)
		if slot == opt.Workers {
			sched.ring.put(v, obs.MasterWorker, obs.PoolPut)
		} else {
			locals[slot] = append(locals[slot], v)
		}
	}
	sched.addInFlight(len(frontier))
	if len(frontier) == 0 {
		// The master phase already exhausted the search (tiny instance or
		// total pruning); release the workers immediately.
		sched.markDone()
	}

	// Gap sampler: a goroutine reading the workers' published telemetry
	// slots at GapPeriod. Started only when sampling is on, stopped (and
	// joined) before any terminal event so ProblemFinish stays last. The
	// master's expansion count is frozen here, so the sampler never reads
	// the master's statistics concurrently.
	sampling := probe != nil && opt.GapPeriod > 0
	sched.sampling = sampling
	var samplerStop, samplerDone chan struct{}
	if sampling {
		samplerStop, samplerDone = make(chan struct{}), make(chan struct{})
		masterExpanded := master.Stats.Expanded
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(opt.GapPeriod)
			defer tick.Stop()
			last := time.Now()
			var lastNodes int64
			for {
				select {
				case <-samplerStop:
					return
				case <-tick.C:
					lb, wexp, frontier := sched.telemetry()
					expanded := masterExpanded + wexp
					now := time.Now()
					var rate float64
					if dt := now.Sub(last); dt > 0 {
						rate = float64(expanded-lastNodes) / dt.Seconds()
					}
					last, lastNodes = now, expanded
					cur := inc.bound()
					probe.Emit(obs.Event{Kind: obs.GapSample, Worker: obs.MasterWorker,
						Value: cur, BestLB: lb, Gap: obs.GapRatio(cur, lb), Rate: rate,
						Nodes: expanded, Frontier: frontier, Elapsed: now.Sub(start)})
				}
			}
		}()
	}

	// Step 7: workers.
	var wg sync.WaitGroup
	workers := make([]*bb.Search, opt.Workers)
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workers[w] = runWorker(p, opt, sched, inc, locals[w], budget, w, start)
		}(w)
	}
	wg.Wait()
	if sampling {
		close(samplerStop)
		<-samplerDone
	}

	// Step 8: gather.
	res.Result = bb.Gather(seed, inc.best, append(workers, master)...)
	for w, ws := range workers {
		res.WorkerStats[w] = ws.Stats
	}
	res.PoolGets, res.PoolPuts = sched.ring.gets.Load(), sched.ring.puts.Load()
	res.Sched = SchedStats{
		Steals:     sched.steals.Load(),
		Parks:      sched.parks.Load(),
		Donates:    sched.donates.Load(),
		Dispatches: int64(res.MasterNodes),
	}
	if probe != nil {
		// Flush the master's prune attribution (workers flushed their own
		// in runWorker) and the terminal gap snapshot before
		// ProblemFinish, which must stay the final event of a search.
		bb.EmitPruneStats(probe, obs.MasterWorker, master.Stats.Pruned, time.Since(start))
		if sampling {
			probe.Emit(obs.Event{Kind: obs.GapSample, Worker: obs.MasterWorker,
				Value: res.Cost, BestLB: res.OpenLB, Gap: obs.GapRatio(res.Cost, res.OpenLB),
				Nodes: res.Stats.Expanded, Elapsed: time.Since(start)})
		}
		probe.Emit(obs.Event{Kind: obs.ProblemFinish, Worker: obs.MasterWorker,
			Value: res.Cost, Nodes: res.Stats.Expanded, Elapsed: time.Since(start)})
	}
	return res
}

// runWorker is the paper's Step 7 loop for one computing node: the shared
// branch-and-bound step over the work-stealing scheduler. A worker the
// context or the shared budget stopped keeps consuming nodes without
// expanding them, abandoning each, so the in-flight count still reaches
// zero and every worker exits promptly.
func runWorker(p *bb.Problem, opt Options, s *scheduler, inc *incumbent,
	seed []*bb.PNode, budget *atomic.Int64, id int, start time.Time) *bb.Search {
	np := p.NewPool()
	search := p.NewSearch(opt.Options, inc.as(id), np, budget)
	f := &workerFrontier{s: s, id: id, d: &s.deques[id], inc: inc, np: np,
		collectAll: opt.CollectAll, stats: &search.Stats, epoch: inc.boundEpoch(),
		// Victim selection is seeded deterministically per worker
		// (splitmix64 of the id, so ids 0 and 1 do not share a sequence).
		rng: splitmix64(uint64(id) + 1),
		tel: &workerTel{id: id, probe: opt.Probe, start: start, stats: &search.Stats}}
	if probe := opt.Probe; probe != nil {
		probe.Emit(obs.Event{Kind: obs.WorkerStart, Worker: id,
			Nodes: int64(len(seed)), Elapsed: time.Since(start)})
		defer func() {
			f.tel.flush()
			// Per-worker prune attribution, batched across the whole loop:
			// the prune hot paths only touch plain counters.
			bb.EmitPruneStats(probe, id, search.Stats.Pruned, time.Since(start))
			probe.Emit(obs.Event{Kind: obs.WorkerFinish, Worker: id,
				Nodes: search.Stats.Expanded, Elapsed: time.Since(start)})
		}()
	}
	// Seed the deque with the master's dispatch (already counted
	// in-flight). The list arrives sorted by ascending LB; pushing
	// worst-first leaves the most promising node at the bottom (popped
	// first, DFS order) and the least promising at the top (stolen first).
	for i := len(seed) - 1; i >= 0; i-- {
		s.pushLocal(id, f.d, seed[i])
	}
	search.Run(f)
	if search.Stopped() {
		for v, _ := f.Pop(); v != nil; v, _ = f.Pop() {
			search.Abandon(v)
		}
	}
	return search
}

// workerFrontier is one worker's view of the scheduler as its search's
// frontier: own deque bottom first, then the ring, then steals. The node
// a worker holds stays in flight until its next Pop, after its children
// were pushed, so termination detection never sees an empty search early.
type workerFrontier struct {
	s          *scheduler
	id         int
	d          *deque
	rng        uint64
	tel        *workerTel
	inc        *incumbent
	epoch      uint64
	np         *bb.NodePool
	collectAll bool
	stats      *bb.Stats
	scratch    []*bb.PNode // reprune sweep buffer, allocated on first use
	held       bool
}

func (f *workerFrontier) Pop() (*bb.PNode, int) {
	if f.held {
		f.s.finish(1)
		f.held = false
	}
	v, ok := f.s.next(f.id, &f.rng, f.tel)
	if !ok {
		if f.s.sampling {
			f.s.publish(f.id, math.Inf(1), f.stats.Expanded)
		}
		return nil, 0
	}
	f.held = true
	if f.s.sampling {
		f.s.publish(f.id, v.LB, f.stats.Expanded)
	}
	if e := f.inc.boundEpoch(); e != f.epoch {
		// Another worker improved the shared bound: lazily re-prune our
		// own deque against it, off any lock — stale subproblems die here
		// instead of being expanded.
		f.epoch = e
		f.scratch = f.s.repruneLocal(f.id, f.d, f.inc.bound(), f.collectAll, f.np, f.stats, f.scratch)
	}
	return v, int(f.d.size()) + 1
}

// Push counts the children in flight BEFORE they become stealable, then
// pushes them worst-first so the best child is popped next.
func (f *workerFrontier) Push(kids []*bb.PNode) {
	if len(kids) == 0 {
		return
	}
	f.s.addInFlight(len(kids))
	for i := len(kids) - 1; i >= 0; i-- {
		f.s.pushLocal(f.id, f.d, kids[i])
	}
	f.s.unpark(len(kids))
}

// MinLB is never sampled: the parallel engine's gap samples come from the
// sampler goroutine, which reads the workers' published slots.
func (f *workerFrontier) MinLB() float64 { return math.Inf(1) }

// repruneLocal empties the worker's own deque into scratch, discards every
// node the refreshed bound prunes, and pushes the survivors back in their
// original order. Runs only when the bound epoch changed — a handful of
// times per search — and touches only the owner's end of the deque, so no
// lock is needed; thieves racing the sweep simply steal nodes before the
// sweep reaches them.
func (s *scheduler) repruneLocal(id int, d *deque, ub float64, collectAll bool,
	np *bb.NodePool, stats *bb.Stats, scratch []*bb.PNode) []*bb.PNode {
	scratch = scratch[:0]
	pruned := 0
	for {
		v := d.pop()
		if v == nil {
			break
		}
		if bb.Prune(v.LB, ub, collectAll) {
			// Deque residents that died to another worker's improvement:
			// incumbent discards by definition.
			stats.Pruned.Incumbent++
			pruned++
			np.Put(v)
			continue
		}
		scratch = append(scratch, v)
	}
	// pop returned newest-first; pushing in reverse restores the original
	// bottom-to-top order (best at the bottom, worst at the top).
	for i := len(scratch) - 1; i >= 0; i-- {
		s.pushLocal(id, d, scratch[i])
	}
	s.finish(pruned)
	return scratch
}

// splitmix64 spreads a small seed into a full-entropy xorshift state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ---- incumbent (shared upper bound + best trees) ----

// incumbent holds the shared upper bound and the best trees found so far.
// The bound itself is published as atomic float64 bits plus an epoch
// counter: the hot-path read (bound) is a single atomic load, and workers
// watch the epoch to notice improvements without ever taking the mutex.
// The mutex only serializes offers — complete topologies at or below the
// incumbent cost, a rare event — which need tree/CollectAll bookkeeping.
type incumbent struct {
	bits  atomic.Uint64 // math.Float64bits of the current upper bound
	epoch atomic.Uint64 // bumped on every strict improvement

	mu   sync.Mutex
	best *bb.Best // guarded by mu, so its UB events are ordered
}

func newIncumbent(best *bb.Best) *incumbent {
	c := &incumbent{best: best}
	c.bits.Store(math.Float64bits(best.Cost))
	return c
}

// as returns the incumbent as the given worker's bb.Incumbent (the
// master is obs.MasterWorker); worker identifies the finder in telemetry.
func (c *incumbent) as(worker int) bb.Incumbent { return workerIncumbent{c, worker} }

type workerIncumbent struct {
	c      *incumbent
	worker int
}

func (w workerIncumbent) Bound() float64 { return w.c.bound() }

func (w workerIncumbent) Offer(v *bb.PNode, st *bb.Stats) float64 {
	w.c.offer(v, st.Expanded, w.worker)
	return w.c.bound()
}

// bound returns the current global upper bound: one atomic load, no lock.
// (The seed implementation took a mutex here, which put an acquire/release
// pair on every node expansion of every worker — the dominant coordination
// cost once the search kernel stopped allocating.)
func (c *incumbent) bound() float64 {
	return math.Float64frombits(c.bits.Load())
}

// boundEpoch returns the improvement epoch. The bits store precedes the
// epoch bump, so a reader that sees a new epoch reads a bound at least as
// tight on its next bound() call.
func (c *incumbent) boundEpoch() uint64 {
	return c.epoch.Load()
}

// offer records a complete topology, publishing the shared bound when it
// is a strict improvement — the "update the GUB to every node" broadcast
// of the paper (shared memory makes the broadcast implicit). Offers are
// recorded under the mutex, so the bound only tightens and UBImproved
// events form a strictly decreasing sequence even when several workers
// improve the bound concurrently. Offers strictly above the published
// bound return without touching the mutex.
func (c *incumbent) offer(v *bb.PNode, expanded int64, worker int) {
	if v.Cost > c.bound() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.best.Add(v, expanded, worker) {
		c.bits.Store(math.Float64bits(v.Cost))
		c.epoch.Add(1)
	}
}
