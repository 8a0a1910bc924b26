package verify

import (
	"testing"

	"evotree/internal/bb"
)

// TestCheckAccountingDetectsViolations proves the checker itself has
// teeth: a consistent counter set passes, and each broken relation is
// reported.
func TestCheckAccountingDetectsViolations(t *testing.T) {
	good := bb.Stats{
		Expanded:  5,
		Generated: 14,
		Roots:     1,
		Completed: 2,
		Pruned: bb.PruneStats{Bound: 3, Incumbent: 1, ThreeThree: 1,
			Ultrametric: 1, Dominance: 2},
	}
	if fails := CheckAccounting(good); len(fails) != 0 {
		t.Fatalf("consistent stats flagged: %v", fails)
	}

	identityBroken := good
	identityBroken.Generated++ // one generated node never consumed
	if fails := CheckAccounting(identityBroken); len(fails) != 1 || fails[0].Property != "prune-accounting" {
		t.Fatalf("broken identity not flagged as prune-accounting: %v", fails)
	}

	negativeBucket := good
	negativeBucket.Pruned.Dominance = -2
	negativeBucket.Generated -= 4 // keep the sum identity closed
	if fails := CheckAccounting(negativeBucket); len(fails) != 1 || fails[0].Property != "prune-negative" {
		t.Fatalf("negative dominance bucket not flagged: %v", fails)
	}
}

// TestPruneAccountingAllEnginesOracleBand asserts the node-accounting
// identity (Generated + Roots == Expanded + Pruned.Total() + Completed,
// per rule) across every engine on the oracle band, complete searches.
func TestPruneAccountingAllEnginesOracleBand(t *testing.T) {
	runAccountingBand(t, 0)
}

// TestPruneAccountingAllEnginesTruncated does the same with a tiny node
// budget, so the searches truncate and the budget-prune rule must absorb
// every abandoned node for the identity to close.
func TestPruneAccountingAllEnginesTruncated(t *testing.T) {
	runAccountingBand(t, 7)
}

func runAccountingBand(t *testing.T, maxNodes int64) {
	t.Helper()
	engines, err := ParseEngines("")
	if err != nil {
		t.Fatal(err)
	}
	truncated := 0
	for seed := int64(1); seed <= 4; seed++ {
		for n := 5; n <= 9; n += 2 {
			kind := Kinds[int(seed)%len(Kinds)]
			m, err := GenerateInstance(kind, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range engines {
				res, err := e.Run(m, maxNodes, nil)
				if err != nil {
					t.Fatalf("%s on kind=%s n=%d seed=%d: %v", e.Name, kind, n, seed, err)
				}
				if !res.Optimal {
					truncated++
				}
				for _, f := range CheckAccounting(res.Stats) {
					t.Errorf("%s on kind=%s n=%d seed=%d: %s", e.Name, kind, n, seed, f)
				}
			}
		}
	}
	if maxNodes > 0 && truncated == 0 {
		t.Fatalf("budget %d truncated no searches — the budget-prune rule went unexercised", maxNodes)
	}
}
