// Package cluster is a deterministic discrete-event model of the PC
// cluster the papers evaluated on (one master, N slave computing nodes on
// 100 Mbps Ethernet) and of the UniGrid platform of the project's grid
// report. It replays the exact master/worker branch-and-bound protocol of
// internal/pbb under a virtual clock. The master and every slave run the
// shared branch-and-bound step, bb.Search; each slave is the frontier and
// the incumbent of its own search, so only time and messages are modelled
// here:
//
//   - expanding one BBT node costs Config.TBranch time units (the master
//     runs at nominal speed, slave i at Config.Speeds[i]); a node the
//     bounds prune costs nothing;
//   - every message (global-upper-bound broadcast, pool transfer) costs
//     Config.Latency plus size·Config.PerByte;
//   - an upper bound found by one node becomes visible to the others only
//     after the broadcast delay, exactly like an MPI broadcast.
//
// Because the simulation is single-threaded and breaks ties by node id, a
// given (matrix, config) always produces the same virtual makespan — so
// the speedup experiments of the companion paper (Figures 1–8) are
// reproducible on any host, independent of how many physical cores this
// machine has. Super-linear speedups arise for the same reason the paper
// gives: a parallel search discovers good upper bounds earlier in virtual
// time, which prunes the remaining nodes' subtrees.
package cluster

import (
	"fmt"
	"math"
	"slices"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
)

// Config describes the simulated machine.
type Config struct {
	Nodes int // slave computing nodes (the papers use 1 and 16)
	// TBranch is the virtual cost of expanding one BBT node. The absolute
	// scale is arbitrary; only ratios to the message costs matter.
	TBranch float64
	// Latency is the per-message delay (UB broadcast, pool transfer).
	Latency float64
	// PerByte is the transfer cost per subproblem species (models message
	// size growing with the partial topology).
	PerByte float64
	// DisableGlobalPool turns off the two-level load balancer: nodes never
	// donate to or pull from the global pool after the initial dispatch.
	// Used by the ablation experiments to measure what the paper's
	// global/local pool design buys.
	DisableGlobalPool bool
	// Speeds optionally gives per-node relative speeds (1.0 = nominal):
	// node i expands a BBT node in TBranch/Speeds[i] time units. Missing
	// or non-positive entries default to 1. Models the heterogeneous
	// hardware of the grid report (the UniGrid nodes were slower than the
	// lab cluster).
	Speeds []float64
	// BB carries the search options. They apply as in bb.Solve, except
	// that MaxNodes is one expansion budget shared by the master and every
	// slave, and that CollectAll is rejected: Result carries no trees. A
	// run cut short by MaxNodes or Ctx reports Result.Capped.
	BB bb.Options
}

// ClusterConfig models the papers' Fast-Ethernet PC cluster: messages are
// cheap relative to branching.
func ClusterConfig(nodes int) Config {
	return Config{
		Nodes:   nodes,
		TBranch: 1.0,
		Latency: 0.2,
		PerByte: 0.01,
		BB:      bb.DefaultOptions(),
	}
}

// GridConfig models a wide-area grid (the UniGrid platform of the NCS
// report): the same protocol with two orders of magnitude more latency
// and slightly slower, heterogeneous nodes (the report's grid machines
// were AMD 1.3 GHz against the cluster's 2000+).
func GridConfig(nodes int) Config {
	c := ClusterConfig(nodes)
	c.Latency = 20
	c.PerByte = 0.05
	c.Speeds = make([]float64, nodes)
	for i := range c.Speeds {
		// Alternate between 0.65x and 0.85x of the cluster node speed.
		if i%2 == 0 {
			c.Speeds[i] = 0.65
		} else {
			c.Speeds[i] = 0.85
		}
	}
	return c
}

// Result reports one simulated run.
type Result struct {
	// Cost is the best tree cost found: bb.Solve's cost under the same
	// options for uncapped runs; for capped runs only the incumbent at the
	// cut.
	Cost     float64
	Makespan float64 // virtual completion time (master + slowest slave)
	// MasterTime is the virtual time the master spent building and
	// dispatching the initial frontier; slaves start after it.
	MasterTime float64
	// Capped reports that BB.MaxNodes or BB.Ctx cut the search short;
	// Cost is then the best bound found rather than the proven optimum.
	Capped     bool
	Stats      bb.Stats  // the master's and every slave's search, summed
	Messages   int64     // UB broadcasts + pool transfers
	BytesMoved float64   // weighted message volume
	NodeBusy   []float64 // per-slave busy time (load-balance visibility)
}

// Efficiency returns busy-time utilisation: Σ busy / (Nodes × makespan).
func (r *Result) Efficiency(nodes int) float64 {
	if r.Makespan == 0 || nodes == 0 {
		return 1
	}
	sum := 0.0
	for _, b := range r.NodeBusy {
		sum += b
	}
	return sum / (float64(nodes) * r.Makespan)
}

// ubEvent is a bound improvement that becomes visible at time t.
type ubEvent struct {
	t  float64
	ub float64
}

// machine is the state the slaves share: the global pool, the broadcasts
// in flight, the incumbent record and the message counters.
type machine struct {
	cfg    Config
	pool   []*bb.PNode // the global pool
	events []ubEvent
	best   *bb.Best
	res    *Result
}

// slave is one slave computing node of the model: the Frontier and the
// Incumbent of its own bb.Search, on its own virtual clock.
type slave struct {
	*machine
	id     int
	search *bb.Search
	local  bb.Stack
	clock  float64
	busy   float64
	step   float64 // TBranch/speed: the virtual cost of one expansion
	own    float64 // the node's own best find (visible to it at once)
}

func (w *slave) Pop() (*bb.PNode, int) { return w.local.Pop() }
func (w *slave) MinLB() float64        { return w.local.MinLB() }

// Push charges the expansion that produced kids to the slave's clock and,
// when the global pool has run empty, donates the slave's oldest open node
// to it (an asynchronous send).
func (w *slave) Push(kids []*bb.PNode) {
	w.clock += w.step
	w.busy += w.step
	w.local.Push(kids)
	if !w.cfg.DisableGlobalPool && len(w.pool) == 0 && len(w.local) > 1 {
		d := w.local[0]
		w.local = w.local[1:]
		w.pool = append(w.pool, d)
		w.res.Messages++
		w.res.BytesMoved += float64(d.K)
	}
}

// Bound is the incumbent visible at the slave's clock: its own finds, and
// the other nodes' finds whose broadcast has arrived.
func (w *slave) Bound() float64 {
	ub := w.own
	for _, e := range w.events {
		if e.t <= w.clock && e.ub < ub {
			ub = e.ub
		}
	}
	return ub
}

// Offer broadcasts a find to every other node. It is made during an
// expansion, so it arrives Latency after the expansion ends.
func (w *slave) Offer(v *bb.PNode, st *bb.Stats) float64 {
	w.own = v.Cost
	w.events = append(w.events, ubEvent{t: w.clock + w.step + w.cfg.Latency, ub: v.Cost})
	w.res.Messages += int64(w.cfg.Nodes - 1)
	w.best.Add(v, st.Expanded, w.id)
	return w.Bound()
}

// pull moves the most promising pooled node into the slave's local pool
// (two messages: request + reply).
func (w *slave) pull() {
	bi := 0
	for i, v := range w.pool {
		if v.LB < w.pool[bi].LB {
			bi = i
		}
	}
	v := w.pool[bi]
	w.pool[bi] = w.pool[len(w.pool)-1]
	w.pool = w.pool[:len(w.pool)-1]
	w.local = append(w.local, v)
	w.clock += 2*w.cfg.Latency + w.cfg.PerByte*float64(v.K)
	w.res.Messages += 2
	w.res.BytesMoved += float64(v.K)
}

// Simulate runs the virtual cluster on m and returns the makespan. The
// search itself is exact: an uncapped run's Cost equals bb.Solve's under
// the same options. Simulate rejects a config Validate rejects.
func Simulate(m *matrix.Matrix, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := bb.NewProblem(m, cfg.BB.UseMaxMin)
	if err != nil {
		return nil, err
	}
	opt, start := cfg.BB, time.Now()
	seed := p.SeedIncumbent(opt, start)
	mc := &machine{cfg: cfg, best: p.NewBest(seed, opt, start),
		res: &Result{NodeBusy: make([]float64, cfg.Nodes)}}
	res, np, budget := mc.res, p.NewPool(), bb.NewBudget(opt.MaxNodes)

	// ---- master phase ----
	master := p.NewSearch(opt, mc.best, np, budget)
	frontier := master.Slice(bb.Fanout * cfg.Nodes)
	res.MasterTime = float64(master.Stats.Expanded) * cfg.TBranch

	// ---- dispatch (cyclic, one message per subproblem) ----
	slaves := make([]*slave, cfg.Nodes)
	for i := range slaves {
		speed := 1.0
		if i < len(cfg.Speeds) && cfg.Speeds[i] > 0 {
			speed = cfg.Speeds[i]
		}
		w := &slave{machine: mc, id: i, clock: res.MasterTime,
			step: cfg.TBranch / speed, own: mc.best.Cost}
		w.search = p.NewSearch(opt, w, np, budget)
		w.search.WorstFirst = true
		slaves[i] = w
	}
	slots := cfg.Nodes + 1
	if cfg.DisableGlobalPool {
		slots = cfg.Nodes // no pool share without load balancing
	}
	for i, v := range frontier {
		res.Messages++
		res.BytesMoved += float64(v.K)
		if i%slots == cfg.Nodes {
			mc.pool = append(mc.pool, v)
			continue
		}
		w := slaves[i%slots]
		w.local = append(w.local, v)
		w.clock = math.Max(w.clock, res.MasterTime+cfg.Latency+cfg.PerByte*float64(v.K))
	}
	for _, w := range slaves {
		slices.Reverse(w.local) // the frontier is ascending by LB: best on top
	}

	// ---- event loop: advance the earliest-clock slave that has work ----
	res.Capped = master.Stopped()
	for !res.Capped {
		var w *slave
		for _, x := range slaves {
			if len(x.local) == 0 && (len(mc.pool) == 0 || cfg.DisableGlobalPool) {
				continue
			}
			if w == nil || x.clock < w.clock {
				w = x
			}
		}
		if w == nil {
			break
		}
		if len(w.local) == 0 {
			w.pull()
			continue
		}
		res.Capped = !w.search.Step(w)
	}

	// Nodes still open were cut off by the budget or the context; a
	// complete run leaves none.
	master.Abandon(mc.pool...)
	res.Stats = master.Stats
	for i, w := range slaves {
		w.search.Abandon(w.local...)
		res.Stats.Add(w.search.Stats)
		res.NodeBusy[i] = w.busy
		res.Makespan = math.Max(res.Makespan, w.clock) // clocks start at MasterTime
	}
	res.Stats.Solutions, res.Stats.UBUpdates = mc.best.Solutions, mc.best.UBUpdates
	_, res.Cost = seed.Resolve(mc.best.Tree, mc.best.Cost)
	return res, nil
}

// Speedup runs the simulation with 1 and with nodes slaves and returns
// makespan(1)/makespan(nodes) along with both results.
func Speedup(m *matrix.Matrix, cfg Config, nodes int) (float64, *Result, *Result, error) {
	one := cfg
	one.Nodes = 1
	seq, err := Simulate(m, one)
	if err != nil {
		return 0, nil, nil, err
	}
	many := cfg
	many.Nodes = nodes
	par, err := Simulate(m, many)
	if err != nil {
		return 0, nil, nil, err
	}
	if par.Makespan == 0 {
		return 1, seq, par, nil
	}
	return seq.Makespan / par.Makespan, seq, par, nil
}

// Validate sanity-checks a configuration; Simulate runs it first.
func (cfg Config) Validate() error {
	if cfg.Nodes < 1 {
		return fmt.Errorf("cluster: need at least 1 node")
	}
	if !(cfg.TBranch > 0) {
		return fmt.Errorf("cluster: TBranch must be positive, got %g", cfg.TBranch)
	}
	if cfg.Latency < 0 || cfg.PerByte < 0 {
		return fmt.Errorf("cluster: negative cost parameter")
	}
	if math.IsNaN(cfg.Latency + cfg.PerByte) {
		return fmt.Errorf("cluster: NaN cost parameter")
	}
	if cfg.BB.CollectAll {
		return fmt.Errorf("cluster: CollectAll is not supported: Result carries no trees")
	}
	return nil
}
