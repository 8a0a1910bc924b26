package dist

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"evotree/internal/bb"
	"evotree/internal/cluster"
	"evotree/internal/matrix"
)

// Simulator-validation tolerances. The discrete-event model in
// internal/cluster and the real localhost farm schedule work differently
// (virtual clock + tie-breaking by node id vs OS goroutine scheduling and
// real HTTP latency), so exact agreement is impossible and not the claim.
// The documented contract, asserted here and measured by `evobench -fig
// dist`, is:
//
//   - costs agree EXACTLY (both are exact searches — a hard gate);
//   - expansion counts agree within simExpandFactor (both engines explore
//     the same bounded tree, but bound-arrival timing shifts the pruning);
//   - the measured farm speedup is within simSpeedupFactor of the model's
//     predicted speedup, in either direction.
const (
	simExpandFactor  = 10.0
	simSpeedupFactor = 4.0
)

// throttledFarmTime measures the wall-clock of a throttled farm run and
// returns it with the result. stepDelay plays the role of the model's
// TBranch: it makes expansion cost dominate scheduling noise the same way
// branching dominates messaging on the paper's cluster.
func throttledFarmTime(t *testing.T, m *matrix.Matrix, workers int, stepDelay time.Duration) (*Result, time.Duration) {
	t.Helper()
	start := time.Now()
	res, err := solveFarm(m, Options{Workers: workers, BB: bb.DefaultOptions()}, stepDelay)
	if err != nil {
		t.Fatal(err)
	}
	return res, time.Since(start)
}

// TestSimulatorValidation feeds matched instances through the cluster
// model and through a real throttled localhost farm, and holds the two to
// the documented tolerances above.
func TestSimulatorValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("throttled farm runs are slow in -short mode")
	}
	const workers = 3
	const stepDelay = time.Millisecond
	// Seeds chosen so the sequential search expands ~60–100 nodes: big
	// enough that the throttled wall-clock is dominated by StepDelay
	// rather than scheduling noise, small enough to stay fast in CI.
	for _, seed := range []int64{65, 77} {
		m := matrix.Random0100(rand.New(rand.NewSource(seed)), 10)

		cfg := cluster.ClusterConfig(workers)
		predicted, simSeq, simPar, err := cluster.Speedup(m, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}

		farm1, wall1 := throttledFarmTime(t, m, 1, stepDelay)
		farmN, wallN := throttledFarmTime(t, m, workers, stepDelay)

		// Hard gate: model, 1-worker farm and N-worker farm all prove the
		// same optimum.
		if simPar.Cost != simSeq.Cost || farm1.Cost != simSeq.Cost || farmN.Cost != simSeq.Cost {
			t.Errorf("seed %d: costs diverge: sim seq=%v par=%v, farm 1w=%v %dw=%v",
				seed, simSeq.Cost, simPar.Cost, farm1.Cost, workers, farmN.Cost)
		}
		if !farm1.Optimal || !farmN.Optimal {
			t.Errorf("seed %d: farm runs not optimal", seed)
		}

		// Expansion counts within the documented factor.
		for _, pair := range []struct {
			name      string
			sim, farm int64
		}{
			{"sequential", simSeq.Stats.Expanded, farm1.Stats.Expanded},
			{"parallel", simPar.Stats.Expanded, farmN.Stats.Expanded},
		} {
			if pair.sim == 0 || pair.farm == 0 {
				continue
			}
			ratio := float64(pair.farm) / float64(pair.sim)
			if ratio > simExpandFactor || ratio < 1/simExpandFactor {
				t.Errorf("seed %d %s: farm expanded %d, model %d — ratio %.2f outside factor %g",
					seed, pair.name, pair.farm, pair.sim, ratio, simExpandFactor)
			}
		}

		// Measured vs predicted speedup within the documented factor.
		measured := float64(wall1) / math.Max(float64(wallN), 1)
		ratio := measured / predicted
		if ratio > simSpeedupFactor || ratio < 1/simSpeedupFactor {
			t.Errorf("seed %d: measured speedup %.2f (wall %v -> %v), model predicts %.2f — ratio %.2f outside factor %g",
				seed, measured, wall1.Round(time.Millisecond), wallN.Round(time.Millisecond),
				predicted, ratio, simSpeedupFactor)
		}
		t.Logf("seed %d: cost %v, speedup measured %.2f vs predicted %.2f, expansions farm %d/%d vs model %d/%d",
			seed, farmN.Cost, measured, predicted,
			farm1.Stats.Expanded, farmN.Stats.Expanded, simSeq.Stats.Expanded, simPar.Stats.Expanded)
	}
}
