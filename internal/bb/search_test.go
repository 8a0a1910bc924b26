package bb

import (
	"math"
	"math/rand"
	"testing"
)

// TestPruneTieSemantics pins the one prune predicate every engine shares:
// a node whose bound exceeds the incumbent always prunes, a tie prunes
// unless every optimum is collected, and a smaller bound never prunes.
func TestPruneTieSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ubs := []float64{0, 1, math.Inf(1), math.SmallestNonzeroFloat64}
	for i := 0; i < 1000; i++ {
		ubs = append(ubs, rng.Float64()*1000, float64(rng.Intn(200))/2)
	}
	for _, ub := range ubs {
		above := []float64{math.Nextafter(ub, math.Inf(1)), ub + 1 + rng.Float64()*100}
		below := []float64{math.Nextafter(ub, math.Inf(-1)), ub - 1 - rng.Float64()*100}
		for _, collectAll := range []bool{false, true} {
			if got := Prune(ub, ub, collectAll); got == collectAll {
				t.Fatalf("Prune(lb == ub = %v, collectAll=%v) = %v", ub, collectAll, got)
			}
			for _, lb := range above {
				if lb > ub && !Prune(lb, ub, collectAll) {
					t.Fatalf("Prune(%v > %v, collectAll=%v) = false", lb, ub, collectAll)
				}
			}
			for _, lb := range below {
				if lb < ub && Prune(lb, ub, collectAll) {
					t.Fatalf("Prune(%v < %v, collectAll=%v) = true", lb, ub, collectAll)
				}
			}
		}
	}
}
