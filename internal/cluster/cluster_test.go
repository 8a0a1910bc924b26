package cluster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"evotree/internal/bb"
	"evotree/internal/matrix"
	"evotree/internal/verify"
)

func TestSimulationMatchesExactCost(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	noSeed := bb.DefaultOptions()
	noSeed.NoInitialUB = true
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(4)
		m := matrix.RandomMetric(rng, n, 50, 100)
		opt, err := bb.Solve(m, bb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// An external bound at the optimum prunes every optimal tree (ties
		// prune), so both sides fall back to the UPGMM tree's cost.
		atOpt := bb.DefaultOptions()
		atOpt.InitialUB = opt.Cost
		for name, o := range map[string]bb.Options{
			"default": bb.DefaultOptions(), "strong": bb.StrongOptions(),
			"noInitialUB": noSeed, "initialUB": atOpt,
		} {
			seq, err := bb.Solve(m, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []Config{ClusterConfig(1), ClusterConfig(4), ClusterConfig(16), GridConfig(16)} {
				cfg.BB = o
				res, err := Simulate(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Cost != seq.Cost || !res.Optimal {
					t.Fatalf("trial %d %s nodes %d: simulated cost %g (capped %v), bb.Solve %g",
						trial, name, cfg.Nodes, res.Cost, !res.Optimal, seq.Cost)
				}
			}
		}
	}
}

func TestSimulationAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	m := matrix.Random0100(rng, 12)
	for _, maxNodes := range []int64{0, 5, 40} {
		for _, cfg := range []Config{ClusterConfig(1), ClusterConfig(16), GridConfig(16)} {
			cfg.BB.MaxNodes = maxNodes
			res, err := Simulate(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fails := verify.CheckAccounting(res.Stats); len(fails) > 0 {
				t.Fatalf("MaxNodes %d nodes %d: %v", maxNodes, cfg.Nodes, fails)
			}
			if res.Optimal != (maxNodes == 0) || res.Optimal != (res.Stats.Pruned.Budget == 0) {
				t.Fatalf("MaxNodes %d nodes %d: capped %v with %d budget prunes",
					maxNodes, cfg.Nodes, !res.Optimal, res.Stats.Pruned.Budget)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := ClusterConfig(4)
	cfg.BB.Ctx = ctx
	res, err := Simulate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fails := verify.CheckAccounting(res.Stats); res.Optimal || len(fails) > 0 {
		t.Fatalf("cancelled run: capped %v, accounting %v", !res.Optimal, fails)
	}
}

func TestSimulationIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := matrix.RandomMetric(rng, 10, 50, 100)
	a, err := Simulate(m, ClusterConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(m, ClusterConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Stats != b.Stats || a.Messages != b.Messages {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestSingleNodeMakespanTracksExpansions(t *testing.T) {
	// With one slave and no pool traffic beyond the initial dispatch, the
	// makespan is dominated by expansions × TBranch.
	rng := rand.New(rand.NewSource(42))
	m := matrix.RandomMetric(rng, 9, 50, 100)
	cfg := ClusterConfig(1)
	cfg.Latency, cfg.PerByte = 0, 0
	res, err := Simulate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(res.Stats.Expanded) * cfg.TBranch; math.Abs(res.Makespan-want) > 1e-6 {
		t.Fatalf("makespan %g, want expansions×TBranch = %g", res.Makespan, want)
	}
}

func TestParallelSimulationNoSlowerInVirtualTime(t *testing.T) {
	// On hard instances 16 virtual nodes should not have a longer
	// makespan than 1 node (communication is cheap in ClusterConfig).
	rng := rand.New(rand.NewSource(43))
	slower := 0
	for trial := 0; trial < 6; trial++ {
		m := matrix.RandomMetric(rng, 11, 50, 100)
		s, seq, par, err := Speedup(m, ClusterConfig(16), 16)
		if err != nil {
			t.Fatal(err)
		}
		if s < 1 {
			slower++
		}
		if seq.Cost != par.Cost {
			t.Fatalf("speedup run changed the optimum: %g vs %g", seq.Cost, par.Cost)
		}
	}
	if slower > 1 {
		t.Fatalf("parallel virtual makespan slower on %d/6 hard instances", slower)
	}
}

func TestGridLatencyHurtsSmallInstances(t *testing.T) {
	// On a small instance the grid's 100× latency must not make it faster
	// than the cluster at equal node count.
	rng := rand.New(rand.NewSource(44))
	m := matrix.RandomMetric(rng, 8, 50, 100)
	cl, err := Simulate(m, ClusterConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Simulate(m, GridConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if gr.Makespan < cl.Makespan {
		t.Fatalf("grid (%g) faster than cluster (%g) despite higher latency",
			gr.Makespan, cl.Makespan)
	}
}

func TestEfficiencyBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := matrix.RandomMetric(rng, 10, 50, 100)
	res, err := Simulate(m, ClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	eff := res.Efficiency(4)
	if eff < 0 || eff > 1+1e-9 {
		t.Fatalf("efficiency %g out of [0,1]", eff)
	}
}

func TestHeterogeneousSpeedsSlowDownTheRun(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := matrix.RandomMetric(rng, 10, 50, 100)
	fast := ClusterConfig(4)
	slow := ClusterConfig(4)
	slow.Speeds = []float64{0.5, 0.5, 0.5, 0.5}
	rf, err := Simulate(m, fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Simulate(m, slow)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Makespan <= rf.Makespan {
		t.Fatalf("half-speed nodes must take longer: %g vs %g", rs.Makespan, rf.Makespan)
	}
	// Defaulting: zero/short Speeds arrays behave like speed 1.
	def := ClusterConfig(4)
	def.Speeds = []float64{0, -1}
	rd, err := Simulate(m, def)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Makespan != rf.Makespan {
		t.Fatalf("non-positive speeds must default to 1: %g vs %g", rd.Makespan, rf.Makespan)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := ClusterConfig(16).Validate(); err != nil {
		t.Fatal(err)
	}
	m := matrix.RandomMetric(rand.New(rand.NewSource(49)), 6, 50, 100)
	for name, edit := range map[string]func(*Config){
		"zero nodes":       func(c *Config) { c.Nodes = 0 },
		"negative latency": func(c *Config) { c.Latency = -1 },
		"negative perByte": func(c *Config) { c.PerByte = -1 },
		"zero TBranch":     func(c *Config) { c.TBranch = 0 },
		"NaN TBranch":      func(c *Config) { c.TBranch = math.NaN() },
		"NaN latency":      func(c *Config) { c.Latency = math.NaN() },
		"collectAll":       func(c *Config) { c.BB.CollectAll = true },
	} {
		bad := ClusterConfig(2)
		edit(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
		if res, err := Simulate(m, bad); err == nil {
			t.Errorf("%s: Simulate accepted it (makespan %g)", name, res.Makespan)
		}
	}
}

func TestMaxExpansionsCapsSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := matrix.Random0100(rng, 14)
	cfg := ClusterConfig(4)
	cfg.BB.MaxNodes = 20
	res, err := Simulate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("hard instance within 20 expansions must report Optimal=false")
	}
	if res.Stats.Expanded != 20 {
		t.Fatalf("expanded %d, want the whole budget of 20", res.Stats.Expanded)
	}
	if res.Cost <= 0 {
		t.Fatal("capped run must still carry the incumbent cost")
	}
}
