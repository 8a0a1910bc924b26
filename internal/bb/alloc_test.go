package bb

import (
	"math"
	"testing"
	"time"
)

// TestExpandSteadyStateAllocations guards the pooled kernel: once a worker's
// free list is warm, an expand/release cycle may allocate only the children
// slice (a handful of appends), never per-node storage. A regression that
// re-introduces per-child cloning allocations trips this immediately.
func TestExpandSteadyStateAllocations(t *testing.T) {
	p, err := NewProblem(kernelMatrix(12), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	// Walk to a mid-depth node so expansions produce a realistic fan-out.
	v := p.Root()
	for v.K < 7 {
		children := expandAll(p, v, np)
		next := children[0]
		for _, ch := range children[1:] {
			np.Put(ch)
		}
		v = next
	}
	allocs := testing.AllocsPerRun(200, func() {
		children, _ := p.Expand(v, Constraints{}, math.Inf(1), false, np)
		for _, ch := range children {
			np.Put(ch)
		}
	})
	if allocs > 8 {
		t.Fatalf("expand/release cycle allocates %.0f objects, want ≤ 8 (children slice only)", allocs)
	}
}

// TestPrunedChildrenAllocateNothing guards the pre-clone bound check: when
// the upper bound prunes every candidate, Expand must not allocate at all —
// the bound is computed against the parent before any clone exists, and the
// max-distance sweep reuses the pool's scratch slice once it is warm.
func TestPrunedChildrenAllocateNothing(t *testing.T) {
	p, err := NewProblem(kernelMatrix(12), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	v := p.Root()
	// ub = v.LB: every child has LB ≥ parent LB, so all prune (collectAll
	// off prunes lb == ub too).
	allocs := testing.AllocsPerRun(200, func() {
		children, pruned := p.Expand(v, Constraints{}, v.LB, false, np)
		if len(children) != 0 {
			t.Fatal("expected every child pruned")
		}
		if pruned.Bound == 0 {
			t.Fatal("expected a non-zero bound-pruned count")
		}
	})
	if allocs != 0 {
		t.Fatalf("fully pruned expansion allocates %.0f objects, want 0", allocs)
	}
}

// TestIntrospectionNilProbeZeroAlloc guards the uninstrumented hot path:
// with a nil probe the entire introspection layer — per-rule accounting,
// the disabled gap sampler, and the prune-stats flush — must cost zero
// allocations per search iteration, so an unprobed solve pays only the
// documented nil checks.
func TestIntrospectionNilProbeZeroAlloc(t *testing.T) {
	search := &Search{OpenLB: math.Inf(1)}
	s := &search.Stats
	gs := newGapSampler(nil, time.Second, time.Now())
	if gs.enabled() {
		t.Fatal("nil-probe sampler must be disabled")
	}
	abandoned := &PNode{LB: 5}
	allocs := testing.AllocsPerRun(1000, func() {
		s.CountExpand(3, PruneStats{Bound: 2, ThreeThree: 1})
		search.Abandon(abandoned)
		if gs.enabled() {
			gs.maybeSample(10, 5, s.Expanded, 1)
		}
		gs.sampleNow(10, 5, s.Expanded, 1)
		EmitPruneStats(nil, 0, s.Pruned, time.Second)
	})
	if allocs != 0 {
		t.Fatalf("nil-probe introspection path allocates %.0f objects per iteration, want 0", allocs)
	}
}

// TestSolveNilProbeSteadyStateAllocations pins the full uninstrumented
// solve: with the probe nil and gap sampling off, a whole sequential
// search on a warm matrix must stay within the pre-introspection
// allocation envelope (result + stack + pooled nodes), proving the new
// attribution counters add no per-node allocations. Under StrongOptions
// the propagation and dominance layers may add only constant set-up (the
// problem's tables and the pool's scratch), never a per-node allocation:
// a strong solve stays within a fixed margin of the plain one.
func TestSolveNilProbeSteadyStateAllocations(t *testing.T) {
	m := kernelMatrix(9)
	allocs := func(opt Options) float64 {
		if _, err := Solve(m, opt); err != nil { // warm any lazy state
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Solve(m, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := allocs(DefaultOptions())
	for _, tc := range []struct {
		name string
		opt  Options
	}{{"default", DefaultOptions()}, {"strong", StrongOptions()}} {
		t.Run(tc.name, func(t *testing.T) {
			base := allocs(tc.opt)
			instr := tc.opt
			instr.GapPeriod = time.Hour // enabled but probe is nil: must stay disabled
			if with := allocs(instr); with > base {
				t.Fatalf("nil-probe solve with GapPeriod set allocates %.0f objects vs %.0f baseline", with, base)
			}
			const setUp = 16
			if base > plain+setUp {
				t.Fatalf("solve allocates %.0f objects vs %.0f with the rules off, want at most %d more", base, plain, setUp)
			}
		})
	}
}

// TestNodePoolRecyclesNodes checks the free-list round trip: a node put back
// is handed out again, and a drained pool falls back to fresh allocation.
func TestNodePoolRecyclesNodes(t *testing.T) {
	p, err := NewProblem(kernelMatrix(6), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	v := p.Root()
	children, _ := p.Expand(v, Constraints{}, math.Inf(1), false, np)
	if len(children) == 0 {
		t.Fatal("no children")
	}
	recycled := children[0]
	np.Put(recycled)
	if got := np.get(p.n); got != recycled {
		t.Fatal("pool did not hand back the recycled node")
	}
	if got := np.get(p.n); got == nil || got == recycled {
		t.Fatal("drained pool must allocate a fresh node")
	}
	// A nil pool must stay usable end to end.
	var nilPool *NodePool
	if nilPool.get(p.n) == nil {
		t.Fatal("nil pool must allocate")
	}
	nilPool.Put(v) // no-op, must not panic
}
