package dist

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
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

// Options configure a coordinator (and, through Solve, its loopback
// farm).
type Options struct {
	// Workers sizes the loopback farm Solve launches and the frontier
	// target the coordinator slices per matrix, bb.Fanout units per
	// worker. At least 1.
	Workers int
	// Decompose runs the compact-set decomposition and farms out one
	// search per internal hierarchy node (the paper's condition 1);
	// false farms frontier batches of the whole-matrix search (exact).
	Decompose bool
	// Reduction picks the decompose-mode group-distance rule. Default
	// compact.Maximum, the only rule that keeps the merged tree feasible.
	Reduction compact.Reduction
	// BB carries the search options. UseMaxMin, Constraints and
	// Propagate are shipped to the workers; MaxNodes is a farm-wide
	// expansion budget; Ctx cancels Wait; Probe receives the
	// coordinator's telemetry. NewCoordinator rejects InitialUB,
	// NoInitialUB and CollectAll.
	BB bb.Options
	// LeaseTTL is how long a worker may hold a unit before the
	// coordinator re-queues it for someone else. Default 10s.
	LeaseTTL time.Duration
	// PollHold caps how long GET /v1/bounds parks a long-poll before
	// answering with an unchanged epoch. Default 250ms.
	PollHold time.Duration
	// StepDelay throttles every worker expansion in Solve's loopback
	// farm, so benchmark and simulator-validation runs are dominated by
	// (virtual) branching cost rather than scheduling noise. Zero for
	// production solves.
	StepDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Reduction == 0 {
		o.Reduction = compact.Maximum
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.PollHold <= 0 {
		o.PollHold = 250 * time.Millisecond
	}
	return o
}

// WorkerFarmStats are one worker's dispatch counters as seen by the
// coordinator.
type WorkerFarmStats struct {
	Name       string
	Dispatched int64 // leases granted
	Completed  int64 // results accepted
	Requeued   int64 // leases that expired while held
	Stale      int64 // results rejected as no longer current
}

// FarmStats aggregate the farm's scheduling traffic.
type FarmStats struct {
	Units      int   // work units created by the coordinator
	Done       int   // units whose result was accepted
	Dispatches int64 // leases granted
	Requeues   int64 // leases expired and re-queued
	Stale      int64 // results rejected (expired/superseded/duplicate lease)
	Broadcasts int64 // epoch bumps (strict incumbent improvements)
	Messages   int64 // protocol messages handled (all endpoints)
	Workers    []WorkerFarmStats
}

// Result is the outcome of a distributed solve.
type Result struct {
	Tree    *tree.Tree
	Cost    float64
	Optimal bool    // false when the budget or context truncated the farm
	OpenLB  float64 // proof floor of a truncated search; +Inf when complete
	Stats   bb.Stats
	Sched   pbb.SchedStats // dispatch/requeue view of the farm scheduling
	Farm    FarmStats
	// CompactSets are the detected sets in Decompose mode, nil otherwise.
	CompactSets []compact.Set
}

// coordMatrix is one matrix being solved by the farm: the whole input in
// frontier mode, one reduced matrix per internal hierarchy node in
// decompose mode.
type coordMatrix struct {
	id       int
	m        *matrix.Matrix
	p        *bb.Problem // nil for 1-species matrices
	np       *bb.NodePool
	ub       float64    // current incumbent upper bound
	ubTree   *tree.Tree // UPGMM fallback incumbent (always feasible)
	ubCost   float64
	best     []int // insertion path of the best complete topology, nil if none
	bestCost float64
	trivial  *tree.Tree // 1-species matrices: the leaf tree, no search
}

// unit is one leasable piece of work: replay path over matrix mid, solve
// the subtree to completion.
type unit struct {
	id, mid  int
	path     []int
	lb       float64 // seed lower bound (requeue ordering, truncation floor)
	seq      uint64  // most recent lease sequence number, 0 = never leased
	worker   string
	deadline time.Time
	queued   bool
	done     bool
}

type workerEntry struct {
	id    int
	stats WorkerFarmStats
}

// Coordinator owns a job: the unit queue, the lease table, and the
// epoch-stamped incumbent bounds. All protocol handlers and Wait share
// one mutex; the hot path of the farm (worker-side expansion) never
// touches it.
type Coordinator struct {
	opt   Options
	m     *matrix.Matrix
	probe obs.Probe
	start time.Time
	job   string

	mu          sync.Mutex
	mats        []*coordMatrix
	units       []*unit
	queue       []int
	outstanding int
	seqCounter  uint64
	epoch       uint64
	boundCh     chan struct{} // closed and replaced on every epoch bump
	doneCh      chan struct{} // closed when every unit is accounted for
	done        bool
	workers     map[string]*workerEntry
	masterStats bb.Stats // coordinator-side slicing work
	foldedStats bb.Stats // accepted worker results
	solutions   int64
	ubUpdates   int64
	truncated   bool
	openLB      float64
	budget      *atomic.Int64 // farm-wide expansion budget, nil when unlimited

	dispatches, requeues, stale, broadcasts, messages int64

	hier   *compact.Hierarchy
	sets   []compact.Set
	matByH map[*compact.Hierarchy]*coordMatrix
}

// NewCoordinator decomposes m into work units according to opt and
// returns a coordinator ready to serve workers. The master slicing runs
// synchronously here (bounded: bb.Fanout×Workers nodes per matrix).
func NewCoordinator(m *matrix.Matrix, opt Options) (*Coordinator, error) {
	if opt.BB.CollectAll || opt.BB.InitialUB != 0 || opt.BB.NoInitialUB {
		return nil, fmt.Errorf("dist: CollectAll, InitialUB and NoInitialUB are not supported by the farm")
	}
	opt = opt.withDefaults()
	c := &Coordinator{
		opt:     opt,
		m:       m,
		probe:   opt.BB.Probe,
		start:   time.Now(),
		job:     randomJobID(),
		boundCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
		workers: make(map[string]*workerEntry),
		openLB:  math.Inf(1),
		budget:  bb.NewBudget(opt.BB.MaxNodes),
	}
	bb.EmitStart(c.probe, m.Len(), opt.BB)
	if opt.Decompose {
		hier, sets, err := compact.BuildHierarchy(m)
		if err != nil {
			return nil, err
		}
		c.hier, c.sets = hier, sets
		c.matByH = make(map[*compact.Hierarchy]*coordMatrix)
		var walk func(h *compact.Hierarchy) error
		walk = func(h *compact.Hierarchy) error {
			if h.IsLeaf() {
				return nil
			}
			for _, ch := range h.Children {
				if err := walk(ch); err != nil {
					return err
				}
			}
			small, _, err := compact.Reduce(m, h, opt.Reduction)
			if err != nil {
				return err
			}
			cm, err := c.addMatrix(small)
			if err != nil {
				return err
			}
			c.matByH[h] = cm
			return nil
		}
		if err := walk(hier); err != nil {
			return nil, err
		}
	} else {
		if _, err := c.addMatrix(m); err != nil {
			return nil, err
		}
	}
	if c.outstanding == 0 {
		c.done = true
		close(c.doneCh)
	}
	return c, nil
}

// addMatrix seeds the incumbent for one matrix and slices its frontier
// into units. Called during construction only (no locking needed).
func (c *Coordinator) addMatrix(m *matrix.Matrix) (*coordMatrix, error) {
	cm := &coordMatrix{id: len(c.mats), m: m, ub: math.Inf(1)}
	c.mats = append(c.mats, cm)
	if m.Len() == 1 {
		t := tree.New(0)
		t.SetNames(m.Names())
		cm.trivial, cm.ub = t, 0
		return cm, nil
	}
	p, err := bb.NewProblem(m, c.opt.BB.UseMaxMin)
	if err != nil {
		return nil, err
	}
	cm.p, cm.np = p, p.NewPool()
	ubTree, ubCost := p.InitialUpperBound()
	cm.ubTree, cm.ubCost, cm.ub = ubTree, ubCost, ubCost
	if !c.opt.Decompose {
		c.emit(obs.Event{Kind: obs.SeedBound, Worker: obs.MasterWorker,
			Value: ubCost, Elapsed: time.Since(c.start)})
	}
	c.slice(cm)
	return cm, nil
}

// slice runs the shared master phase for cm (bb.Search.Slice) and turns
// every open node it returns into one unit. The phase draws on the
// farm-wide expansion budget; when the budget or the context stops it,
// the farm is truncated and the matrix gets no units.
func (c *Coordinator) slice(cm *coordMatrix) {
	s := cm.p.NewSearch(c.opt.BB, masterIncumbent{c, cm}, cm.np, c.budget)
	frontier := s.Slice(bb.Fanout * c.opt.Workers)
	c.masterStats.Add(s.Stats)
	if s.Stopped() {
		c.truncated = true
		c.openLB = math.Min(c.openLB, s.OpenLB)
	}
	for _, v := range frontier {
		u := &unit{id: len(c.units), mid: cm.id, path: v.Path(), lb: v.LB, queued: true}
		c.units = append(c.units, u)
		c.queue = append(c.queue, u.id)
		c.outstanding++
		cm.np.Put(v)
	}
}

// masterIncumbent is a matrix's incumbent as seen by the master phase.
type masterIncumbent struct {
	c  *Coordinator
	cm *coordMatrix
}

func (m masterIncumbent) Bound() float64 { return m.cm.ub }

func (m masterIncumbent) Offer(v *bb.PNode, _ *bb.Stats) float64 {
	m.c.offerCost(m.cm, v.Path(), v.Cost, obs.MasterWorker)
	return m.cm.ub
}

// offerCost folds a complete topology (as path + recomputed cost) into a
// matrix's incumbent: strict improvements tighten the bound, bump the
// epoch, and wake the long-pollers. Callers hold c.mu (or run during
// construction). worker is the finder's telemetry id.
func (c *Coordinator) offerCost(cm *coordMatrix, path []int, cost float64, worker int) {
	switch {
	case cost < cm.ub:
		cm.ub = cost
		cm.best = append([]int(nil), path...)
		cm.bestCost = cost
		c.ubUpdates++
		c.solutions = 1
		c.epoch++
		c.broadcasts++
		close(c.boundCh)
		c.boundCh = make(chan struct{})
		c.emit(obs.Event{Kind: obs.UBImproved, Worker: worker, Value: cost,
			Nodes:   c.masterStats.Expanded + c.foldedStats.Expanded,
			Elapsed: time.Since(c.start)})
	case cost == cm.ub:
		c.solutions++
	}
}

// offerWire validates a wire solution against its matrix — the path must
// replay to a complete topology whose recomputed cost matches the claim —
// and offers it to the incumbent. The bound can only tighten, and only
// to a cost the coordinator itself has verified as realizable, so no
// malformed, duplicate, or stale message can poison it. Caller holds c.mu.
func (c *Coordinator) offerWire(sol wireSolution, worker int) error {
	if sol.Matrix < 0 || sol.Matrix >= len(c.mats) {
		return fmt.Errorf("dist: unknown matrix %d", sol.Matrix)
	}
	cm := c.mats[sol.Matrix]
	if cm.p == nil {
		return fmt.Errorf("dist: matrix %d has no search", sol.Matrix)
	}
	if !validCost(sol.Cost) {
		return fmt.Errorf("dist: unusable cost %v", sol.Cost)
	}
	node, err := cm.p.WalkPath(sol.Path, cm.np)
	if err != nil {
		return err
	}
	defer cm.np.Put(node)
	if !node.Complete(cm.p) {
		return fmt.Errorf("dist: solution path stops at %d of %d species", node.K, cm.p.N())
	}
	got := node.Cost
	if diff := math.Abs(got - sol.Cost); diff > 1e-9*math.Max(1, math.Abs(got)) {
		return fmt.Errorf("dist: claimed cost %v, replay computes %v", sol.Cost, got)
	}
	c.offerCost(cm, sol.Path, got, worker)
	return nil
}

// Job returns the job id workers must present.
func (c *Coordinator) Job() string { return c.job }

// Units returns the number of work units the coordinator created.
func (c *Coordinator) Units() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.units)
}

// Snapshot returns the farm's scheduling counters at this instant.
func (c *Coordinator) Snapshot() FarmStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.farmStatsLocked()
}

func (c *Coordinator) farmStatsLocked() FarmStats {
	fs := FarmStats{
		Units:      len(c.units),
		Dispatches: c.dispatches,
		Requeues:   c.requeues,
		Stale:      c.stale,
		Broadcasts: c.broadcasts,
		Messages:   c.messages,
	}
	for _, u := range c.units {
		if u.done {
			fs.Done++
		}
	}
	for _, we := range c.workers {
		fs.Workers = append(fs.Workers, we.stats)
	}
	sort.Slice(fs.Workers, func(i, j int) bool { return fs.Workers[i].Name < fs.Workers[j].Name })
	return fs
}

func (c *Coordinator) emit(ev obs.Event) {
	if c.probe != nil {
		c.probe.Emit(ev)
	}
}

func (c *Coordinator) workerEntryLocked(name string) *workerEntry {
	we, ok := c.workers[name]
	if !ok {
		we = &workerEntry{id: len(c.workers), stats: WorkerFarmStats{Name: name}}
		c.workers[name] = we
	}
	return we
}

// requeueExpiredLocked returns every lapsed lease's unit to the queue.
// Idempotent: a unit is re-queued at most once per lease, and accepting
// its (still-current) late result removes it from the queue again.
func (c *Coordinator) requeueExpiredLocked(now time.Time) {
	for _, u := range c.units {
		if u.done || u.queued || u.seq == 0 || now.Before(u.deadline) {
			continue
		}
		u.queued = true
		c.queue = append(c.queue, u.id)
		c.requeues++
		we := c.workerEntryLocked(u.worker)
		we.stats.Requeued++
		c.emit(obs.Event{Kind: obs.Requeue, Worker: we.id, Nodes: int64(u.id),
			Elapsed: time.Since(c.start)})
	}
}

func (c *Coordinator) boundsLocked() []wireBound {
	bounds := make([]wireBound, len(c.mats))
	for i, cm := range c.mats {
		bounds[i] = wireBound{Matrix: cm.id, Cost: cm.ub}
	}
	return bounds
}

// Handler returns the coordinator's protocol endpoints. Every request
// must carry the current job id; anything else gets 410 Gone, so a
// worker reconnecting after a coordinator restart (new job id) fails
// cleanly instead of corrupting the new job's state.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathJob, c.handleJob)
	mux.HandleFunc("POST "+pathLease, c.handleLease)
	mux.HandleFunc("POST "+pathResult, c.handleResult)
	mux.HandleFunc("POST "+pathBound, c.handleBound)
	mux.HandleFunc("GET "+pathBounds, c.handleBounds)
	return mux
}

func (c *Coordinator) gone(w http.ResponseWriter, got string) {
	writeJSON(w, http.StatusGone, map[string]string{
		"error": fmt.Sprintf("dist: job %q is not being served here", got),
	})
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.messages++
	if want := r.URL.Query().Get("job"); want != "" && want != c.job {
		c.gone(w, want)
		return
	}
	info := jobInfo{
		Job:         c.job,
		UseMaxMin:   c.opt.BB.UseMaxMin,
		Constraints: c.opt.BB.Constraints,
		Propagate:   c.opt.BB.Propagate,
		LeaseTTLMS:  c.opt.LeaseTTL.Milliseconds(),
		Epoch:       c.epoch,
		Bounds:      c.boundsLocked(),
	}
	for _, cm := range c.mats {
		if cm.p == nil {
			continue // 1-species matrices have no searchable units
		}
		info.Matrices = append(info.Matrices, toWireMatrix(cm.id, cm.m))
	}
	writeJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := readJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.messages++
	if req.Job != c.job {
		c.gone(w, req.Job)
		return
	}
	now := time.Now()
	c.requeueExpiredLocked(now)
	resp := leaseResponse{Epoch: c.epoch, Bounds: c.boundsLocked()}
	switch {
	case c.outstanding == 0 || c.done:
		resp.Done = true
	case len(c.queue) == 0:
		resp.Wait = true
	default:
		uid := c.queue[0]
		c.queue = c.queue[1:]
		u := c.units[uid]
		u.queued = false
		c.seqCounter++
		u.seq = c.seqCounter
		u.worker = req.Worker
		u.deadline = now.Add(c.opt.LeaseTTL)
		we := c.workerEntryLocked(req.Worker)
		we.stats.Dispatched++
		c.dispatches++
		c.emit(obs.Event{Kind: obs.Dispatch, Worker: we.id, Nodes: int64(uid),
			Elapsed: time.Since(c.start)})
		resp.Unit, resp.Seq, resp.Matrix, resp.Path = u.id, u.seq, u.mid, u.path
		if c.budget != nil {
			resp.Limited = true
			resp.Budget = max(0, c.budget.Load())
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if err := readJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.messages++
	if req.Job != c.job {
		c.gone(w, req.Job)
		return
	}
	if req.Unit < 0 || req.Unit >= len(c.units) {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("dist: unknown unit %d", req.Unit)})
		return
	}
	we := c.workerEntryLocked(req.Worker)
	// A solution is folded in regardless of lease freshness: bounds only
	// tighten and the offer is verified + idempotent, so even a worker
	// whose lease expired mid-solve cannot lose the optimum it found.
	if req.Best != nil {
		_ = c.offerWire(*req.Best, we.id) // invalid offers are simply ignored here
	}
	u := c.units[req.Unit]
	resp := resultResponse{}
	if !u.done && req.Seq != 0 && req.Seq == u.seq {
		u.done = true
		if u.queued {
			// The lease lapsed and the unit was re-queued, but nobody
			// re-leased it yet: the original result is still the current
			// lease, so accept it and retract the requeue.
			u.queued = false
			for i, id := range c.queue {
				if id == u.id {
					c.queue = append(c.queue[:i], c.queue[i+1:]...)
					break
				}
			}
		}
		c.outstanding--
		c.foldedStats.Add(req.Stats)
		if c.budget != nil {
			c.budget.Add(-req.Stats.Expanded)
		}
		if req.Truncated {
			c.truncated = true
			if req.HasOpen && req.OpenLB < c.openLB {
				c.openLB = req.OpenLB
			}
		}
		we.stats.Completed++
		resp.Accepted = true
		if c.outstanding == 0 && !c.done {
			c.done = true
			close(c.doneCh)
		}
	} else {
		c.stale++
		we.stats.Stale++
		resp.Reason = "lease is not current"
		c.emit(obs.Event{Kind: obs.StaleResult, Worker: we.id, Nodes: int64(u.id),
			Elapsed: time.Since(c.start)})
	}
	resp.Epoch, resp.Bounds = c.epoch, c.boundsLocked()
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleBound(w http.ResponseWriter, r *http.Request) {
	var req boundRequest
	if err := readJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.messages++
	if req.Job != c.job {
		c.gone(w, req.Job)
		return
	}
	we := c.workerEntryLocked(req.Worker)
	if err := c.offerWire(req.Solution, we.id); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, boundsResponse{Epoch: c.epoch, Done: c.done, Bounds: c.boundsLocked()})
}

func (c *Coordinator) handleBounds(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)
	c.mu.Lock()
	c.messages++
	if want := q.Get("job"); want != c.job {
		c.mu.Unlock()
		c.gone(w, want)
		return
	}
	if c.epoch > since || c.done {
		resp := boundsResponse{Epoch: c.epoch, Done: c.done, Bounds: c.boundsLocked()}
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	ch, doneCh := c.boundCh, c.doneCh
	c.mu.Unlock()
	select {
	case <-ch:
	case <-doneCh:
	case <-time.After(c.opt.PollHold):
	case <-r.Context().Done():
	}
	c.mu.Lock()
	resp := boundsResponse{Epoch: c.epoch, Done: c.done, Bounds: c.boundsLocked()}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// Wait blocks until every unit's result is accepted (or ctx cancels the
// farm), sweeps expired leases in the meantime, and assembles the final
// result. A cancelled wait returns the incumbent with Optimal=false and
// every open unit accounted as a budget prune, so the accounting
// identity holds even for abandoned searches.
func (c *Coordinator) Wait(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sweep := c.opt.LeaseTTL / 4
	if sweep < time.Millisecond {
		sweep = time.Millisecond
	}
	ticker := time.NewTicker(sweep)
	defer ticker.Stop()
	for {
		select {
		case <-c.doneCh:
			return c.assemble(false)
		case <-ctx.Done():
			return c.assemble(true)
		case <-ticker.C:
			c.mu.Lock()
			c.requeueExpiredLocked(time.Now())
			c.mu.Unlock()
		}
	}
}

// assemble builds the Result from the incumbents. cancelled marks a
// Wait cut short: open units are abandoned as budget prunes and their
// seed bounds feed the proof floor.
func (c *Coordinator) assemble(cancelled bool) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cancelled {
		for _, u := range c.units {
			if u.done {
				continue
			}
			u.done = true
			c.truncated = true
			c.masterStats.Pruned.Budget++
			if u.lb < c.openLB {
				c.openLB = u.lb
			}
		}
		c.outstanding = 0
		if !c.done {
			c.done = true
			close(c.doneCh)
		}
	}

	res := &Result{
		Optimal:     !c.truncated,
		OpenLB:      c.openLB,
		CompactSets: c.sets,
		Farm:        c.farmStatsLocked(),
	}
	res.Stats = c.masterStats
	res.Stats.Add(c.foldedStats)
	res.Stats.Solutions = c.solutions
	res.Stats.UBUpdates = c.ubUpdates
	res.Sched = pbb.SchedStats{Dispatches: c.dispatches, Requeues: c.requeues}

	var err error
	if c.opt.Decompose {
		if c.hier.IsLeaf() {
			res.Tree = tree.New(c.hier.Species())
		} else {
			res.Tree, err = c.graftLocked(c.hier)
		}
		if err == nil {
			res.Tree.SetNames(c.m.Names())
			res.Cost = res.Tree.Cost()
			if verr := res.Tree.Validate(1e-9); verr != nil {
				err = fmt.Errorf("dist: assembled tree invalid: %w", verr)
			}
		}
	} else {
		res.Tree, res.Cost, err = c.matrixTreeLocked(c.mats[0])
	}
	if err != nil {
		return nil, err
	}
	bb.EmitPruneStats(c.probe, obs.MasterWorker, res.Stats.Pruned, time.Since(c.start))
	c.emit(obs.Event{Kind: obs.ProblemFinish, Worker: obs.MasterWorker,
		Value: res.Cost, Nodes: res.Stats.Expanded, Elapsed: time.Since(c.start)})
	return res, nil
}

// matrixTreeLocked materializes one matrix's incumbent: the best replayed
// solution, or the UPGMM fallback when the search never beat its seed.
func (c *Coordinator) matrixTreeLocked(cm *coordMatrix) (*tree.Tree, float64, error) {
	if cm.trivial != nil {
		return cm.trivial, 0, nil
	}
	if cm.best == nil {
		return cm.ubTree, cm.ubCost, nil
	}
	node, err := cm.p.WalkPath(cm.best, cm.np)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: incumbent replay: %w", err)
	}
	defer cm.np.Put(node)
	return node.Tree(cm.p), cm.bestCost, nil
}

// graftLocked assembles the decompose-mode tree bottom-up, exactly like
// the in-process pipeline: each internal hierarchy node's group tree is
// grafted over its children's assembled subtrees.
func (c *Coordinator) graftLocked(h *compact.Hierarchy) (*tree.Tree, error) {
	if h.IsLeaf() {
		return nil, nil
	}
	subs := make([]*tree.Tree, len(h.Children))
	for i, ch := range h.Children {
		if ch.IsLeaf() {
			continue
		}
		sub, err := c.graftLocked(ch)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}
	cm := c.matByH[h]
	groupTree, _, err := c.matrixTreeLocked(cm)
	if err != nil {
		return nil, err
	}
	return compact.Graft(groupTree, h, subs)
}

func randomJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}
