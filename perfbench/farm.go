package main

import (
	"fmt"
	"math/rand"
	"time"

	"evotree/internal/bb"
	"evotree/internal/dist"
)

// farmRunner solves the uniform frontier instances on a loopback farm of
// two workers with bb.StrongOptions(), the rules a user asks for with
// `evotree -algo dist -propagate -dominance`.
type farmRunner struct {
	insts []*frontierInst
}

func farmOptions() dist.Options {
	opt := bb.StrongOptions()
	opt.MaxNodes = exactBudget
	return dist.Options{Workers: workers, BB: opt}
}

func setupFarm(seed int64) (runner, error) {
	r := &farmRunner{insts: frontierInstances(seed, "uniform")}
	// Warm-up: one farm solve of a fixed uniform instance.
	m := frontierMatrix(frontierSet[0], rand.New(rand.NewSource(0)))
	if _, err := dist.Solve(m, farmOptions()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func (r *farmRunner) close() {}

func (r *farmRunner) run(d time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	k := len(r.insts)
	times := make([][]float64, k)
	// Per-instance sums of the farm counters, which vary run to run.
	type counters struct{ expanded, units, dispatches, requeues, stale float64 }
	sums := make([]counters, k)
	var prunedU, seqExp float64
	op := 0
	deadline := time.Now().Add(d)
	for pass := 0; ; pass++ {
		for i, in := range r.insts {
			if pass > 0 && time.Now().After(deadline) {
				break
			}
			var spent time.Duration
			for rep := 0; rep < maxReps && (rep == 0 || spent < repBudget); rep++ {
				id := tr.begin("dist.solve", -1, op)
				op++
				start := time.Now()
				res, err := dist.Solve(in.m, farmOptions())
				el := time.Since(start)
				tr.end(id)
				if err != nil {
					return nil, fmt.Errorf("farm: %w", err)
				}
				spent += el
				times[i] = append(times[i], el.Seconds())
				m.sample("farm_ms", float64(el.Nanoseconds())/1e6)
				m.attempted++
				if !res.Optimal {
					m.failed++
					continue
				}
				if in.cost == 0 {
					// The reference optimum comes from one sequential solve
					// outside the timed call.
					seq, err := bb.Solve(in.m, farmOptions().BB)
					if err != nil || !seq.Optimal {
						return nil, fmt.Errorf("farm: sequential reference for %s failed: %v", in.label, err)
					}
					in.cost, in.seqX = seq.Cost, seq.Stats.Expanded
					prunedU += float64(res.Stats.Pruned.Ultrametric)
					seqExp += float64(in.seqX)
				}
				if res.Cost != in.cost {
					m.fail("%s: farm cost %v, sequential %v", in.label, res.Cost, in.cost)
				}
				checkSearch(m, in.label+" farm", in.m, &bb.Result{Tree: res.Tree, Cost: res.Cost, Stats: res.Stats})
				c := &sums[i]
				c.expanded += float64(res.Stats.Expanded)
				c.units += float64(res.Farm.Units)
				c.dispatches += float64(res.Farm.Dispatches)
				c.requeues += float64(res.Farm.Requeues)
				c.stale += float64(res.Farm.Stale)
			}
		}
		if time.Now().After(deadline) {
			break
		}
	}
	// Counters are each instance's mean over its solves; work_excess sums
	// them over the set, the others average them per solve.
	var sum, cost, ref float64
	var mean counters
	for i, in := range r.insts {
		sum += median(times[i])
		m.instMS = append(m.instMS, 1000*median(times[i]))
		m.latMS = append(m.latMS, 1000*median(times[i]))
		n := float64(len(times[i]))
		mean.expanded += sums[i].expanded / n
		mean.units += sums[i].units / n / float64(k)
		mean.dispatches += sums[i].dispatches / n / float64(k)
		mean.requeues += sums[i].requeues / n / float64(k)
		mean.stale += sums[i].stale / n / float64(k)
		cost += in.cost
		ref += in.upgmm
	}
	m.solveS = sum
	m.costRatio = cost / ref
	m.layer["dist.units"] = mean.units
	m.layer["dist.dispatches"] = mean.dispatches
	m.layer["dist.requeues"] = mean.requeues
	m.layer["dist.stale"] = mean.stale
	m.layer["dist.work_excess"] = mean.expanded / seqExp
	m.layer["dist.pruned_ultrametric"] = prunedU
	return m, nil
}
