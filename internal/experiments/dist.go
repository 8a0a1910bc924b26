package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"evotree/internal/bb"
	"evotree/internal/cluster"
	"evotree/internal/dist"
	"evotree/internal/matrix"
)

// The dist experiment validates internal/cluster's discrete-event model
// against the real coordinator/worker farm of internal/dist: matched
// instances go through both, and the model's predicted speedup and
// expansion counts are held against measured localhost-farm runs. With
// Config.BenchOut set it writes the machine-readable report checked in
// as BENCH_pr8.json; outside Quick mode it fails outright when a
// tolerance is violated, which is what the CI bench gate runs.
//
// Tolerances (shared with internal/dist's simulator-validation test):
// costs must agree EXACTLY (both engines are exact searches — the hard
// gate); expansions within a factor distExpandFactor (bound-arrival
// timing shifts the pruning); measured speedup within a factor
// distSpeedupFactor of the prediction in either direction (the model's
// virtual clock vs OS scheduling and real HTTP latency).

func init() { register("dist", runDistValidation) }

const (
	distExpandFactor  = 10.0
	distSpeedupFactor = 4.0
	// distStepDelay throttles every farm expansion so wall-clock is
	// dominated by (virtual) branching cost, the same role TBranch plays
	// in the model.
	distStepDelay = time.Millisecond
)

// distEntry is one matched model-vs-farm run of the JSON report.
type distEntry struct {
	N                int     `json:"n"`
	Seed             int64   `json:"seed"`
	Workers          int     `json:"workers"`
	Cost             float64 `json:"cost"`
	SimSeqExpanded   int64   `json:"sim_seq_expanded"`
	SimParExpanded   int64   `json:"sim_par_expanded"`
	FarmSeqExpanded  int64   `json:"farm_seq_expanded"`
	FarmParExpanded  int64   `json:"farm_par_expanded"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
	MeasuredSpeedup  float64 `json:"measured_speedup"`
	WallSeqMs        float64 `json:"wall_seq_ms"`
	WallParMs        float64 `json:"wall_par_ms"`
	Units            int     `json:"units"`
	Dispatches       int64   `json:"dispatches"`
	Requeues         int64   `json:"requeues"`
	Stale            int64   `json:"stale"`
}

// distReport is the schema of BENCH_pr8.json.
type distReport struct {
	Schema        string      `json:"schema"` // "evotree-dist-bench/v1"
	GOOS          string      `json:"goos"`
	GOARCH        string      `json:"goarch"`
	GoVersion     string      `json:"goversion"`
	NumCPU        int         `json:"num_cpu"`
	GoMaxProcs    int         `json:"gomaxprocs"`
	ExpandFactor  float64     `json:"expand_tolerance_factor"`
	SpeedupFactor float64     `json:"speedup_tolerance_factor"`
	Runs          []distEntry `json:"runs"`
}

// throttledFarm runs one localhost farm and returns the result with its
// wall-clock.
func throttledFarm(m *matrix.Matrix, workers int) (*dist.Result, time.Duration, error) {
	start := time.Now()
	res, err := dist.Solve(m, dist.Options{
		Workers:   workers,
		BB:        bb.DefaultOptions(),
		StepDelay: distStepDelay,
	})
	return res, time.Since(start), err
}

func runDistValidation(cfg Config) (*Figure, error) {
	const workers = 3
	// Seeds sized so the sequential search expands ~60–100 nodes: large
	// enough that the throttled wall-clock is dominated by StepDelay,
	// small enough to keep the gate fast.
	type inst struct {
		n    int
		seed int64
	}
	runs := []inst{{10, 65}, {10, 77}}
	if cfg.Quick {
		runs = runs[:1]
	}

	fig := &Figure{
		ID:     "dist",
		Title:  fmt.Sprintf("cluster model vs measured localhost farm (%d workers)", workers),
		XLabel: "run",
		YLabel: "speedup seq/par",
	}
	report := distReport{
		Schema:        "evotree-dist-bench/v1",
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		ExpandFactor:  distExpandFactor,
		SpeedupFactor: distSpeedupFactor,
	}
	var violations []string
	for i, in := range runs {
		m := matrix.Random0100(rand.New(rand.NewSource(in.seed)), in.n)

		ccfg := cluster.ClusterConfig(workers)
		predicted, simSeq, simPar, err := cluster.Speedup(m, ccfg, workers)
		if err != nil {
			return nil, err
		}
		farmSeq, wallSeq, err := throttledFarm(m, 1)
		if err != nil {
			return nil, err
		}
		farmPar, wallPar, err := throttledFarm(m, workers)
		if err != nil {
			return nil, err
		}
		measured := float64(wallSeq) / math.Max(float64(wallPar), 1)

		e := distEntry{
			N: in.n, Seed: in.seed, Workers: workers,
			Cost:             farmPar.Cost,
			SimSeqExpanded:   simSeq.Stats.Expanded,
			SimParExpanded:   simPar.Stats.Expanded,
			FarmSeqExpanded:  farmSeq.Stats.Expanded,
			FarmParExpanded:  farmPar.Stats.Expanded,
			PredictedSpeedup: predicted,
			MeasuredSpeedup:  measured,
			WallSeqMs:        float64(wallSeq) / float64(time.Millisecond),
			WallParMs:        float64(wallPar) / float64(time.Millisecond),
			Units:            farmPar.Farm.Units,
			Dispatches:       farmPar.Farm.Dispatches,
			Requeues:         farmPar.Farm.Requeues,
			Stale:            farmPar.Farm.Stale,
		}
		report.Runs = append(report.Runs, e)
		fig.X = append(fig.X, float64(i+1))
		fig.AddPoint("predicted", predicted)
		fig.AddPoint("measured", measured)
		fig.AddPoint("model expansions", float64(simPar.Stats.Expanded))
		fig.AddPoint("farm expansions", float64(farmPar.Stats.Expanded))

		// The gates.
		if simPar.Cost != simSeq.Cost || farmSeq.Cost != simSeq.Cost || farmPar.Cost != simSeq.Cost {
			violations = append(violations, fmt.Sprintf(
				"seed %d: costs diverge: sim seq=%v par=%v farm seq=%v par=%v",
				in.seed, simSeq.Cost, simPar.Cost, farmSeq.Cost, farmPar.Cost))
		}
		if !farmSeq.Optimal || !farmPar.Optimal {
			violations = append(violations, fmt.Sprintf("seed %d: farm run not proven optimal", in.seed))
		}
		for _, pair := range []struct {
			name      string
			sim, farm int64
		}{
			{"sequential", simSeq.Stats.Expanded, farmSeq.Stats.Expanded},
			{"parallel", simPar.Stats.Expanded, farmPar.Stats.Expanded},
		} {
			if pair.sim == 0 || pair.farm == 0 {
				continue
			}
			if r := float64(pair.farm) / float64(pair.sim); r > distExpandFactor || r < 1/distExpandFactor {
				violations = append(violations, fmt.Sprintf(
					"seed %d %s: farm expanded %d, model %d — outside factor %g",
					in.seed, pair.name, pair.farm, pair.sim, distExpandFactor))
			}
		}
		if r := measured / predicted; r > distSpeedupFactor || r < 1/distSpeedupFactor {
			violations = append(violations, fmt.Sprintf(
				"seed %d: measured speedup %.2f vs predicted %.2f — outside factor %g",
				in.seed, measured, predicted, distSpeedupFactor))
		}
		fig.Note("n=%d seed=%d: cost %.4g, speedup measured %.2f vs predicted %.2f, expansions farm %d/%d vs model %d/%d, requeues %d, stale %d",
			in.n, in.seed, farmPar.Cost, measured, predicted,
			farmSeq.Stats.Expanded, farmPar.Stats.Expanded, simSeq.Stats.Expanded, simPar.Stats.Expanded,
			farmPar.Farm.Requeues, farmPar.Farm.Stale)
	}
	fig.Note("tolerances: costs exact, expansions within %gx, speedup within %gx", distExpandFactor, distSpeedupFactor)

	if cfg.BenchOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.BenchOut, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fig.Note("report written to %s", cfg.BenchOut)
	}
	if len(violations) > 0 && !cfg.Quick {
		return nil, fmt.Errorf("dist validation gate: %d violation(s):\n  %s",
			len(violations), violations[0])
	}
	for _, v := range violations {
		fig.Note("QUICK-MODE violation (ignored): %s", v)
	}
	return fig, nil
}
