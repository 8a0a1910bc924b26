// parallel: the companion paper's experiment in miniature — run the
// parallel branch-and-bound with growing worker counts on one instance,
// then replay the same search on the virtual 16-node cluster and report
// the deterministic speedup (super-linear when a worker finds a good bound
// early).
//
//	go run ./examples/parallel [-n 18] [-seed 11]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"evotree/internal/cluster"
	"evotree/internal/pbb"
	"evotree/internal/seqsim"
)

func main() {
	n := flag.Int("n", 18, "species")
	seed := flag.Int64("seed", 11, "RNG seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	ds, err := seqsim.Generate(rng, seqsim.Params{Species: *n})
	if err != nil {
		log.Fatal(err)
	}
	m := ds.Matrix

	fmt.Printf("real goroutine engine on %d species:\n", *n)
	fmt.Printf("%8s %12s %12s %10s %10s\n", "workers", "cost", "expanded", "pool-gets", "pool-puts")
	for _, w := range []int{1, 2, 4, 8} {
		res, err := pbb.Solve(m, pbb.DefaultOptions(w))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %12.1f %12d %10d %10d\n",
			w, res.Cost, res.Stats.Expanded, res.PoolGets, res.PoolPuts)
	}

	fmt.Printf("\nvirtual cluster (deterministic discrete-event model):\n")
	fmt.Printf("%8s %14s %12s %10s %12s\n", "nodes", "makespan", "expanded", "messages", "utilisation")
	base := cluster.ClusterConfig(1)
	var t1 float64
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		cfg := base
		cfg.Nodes = nodes
		res, err := cluster.Simulate(m, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if nodes == 1 {
			t1 = res.Makespan
		}
		fmt.Printf("%8d %14.1f %12d %10d %11.0f%%\n",
			nodes, res.Makespan, res.Stats.Expanded, res.Messages, 100*res.Efficiency(nodes))
	}
	s, _, par, err := cluster.Speedup(m, cluster.ClusterConfig(16), 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspeedup T(1)/T(16) = %.2f", s)
	if s > 16 {
		fmt.Printf("  — super-linear, as the paper reports")
	}
	fmt.Printf("\n(virtual T(1) = %.0f, T(16) = %.0f)\n", t1, par.Makespan)
}
