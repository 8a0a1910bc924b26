package bb

// Constraints control the optional search-space reductions.
type Constraints struct {
	// ThreeThree applies the 3-3 relationship when the third species is
	// inserted (Step 4 of the parallel algorithm): only the topology
	// consistent with the close pair of the triple {1,2,3} is generated.
	ThreeThree bool
	// ThreeThreeAll extends the filter to every insertion (the companion
	// paper's stated future work): a child is kept only if placing the new
	// species introduces no new 3-3 contradiction against the matrix. If
	// the filter would eliminate every child the unfiltered set is used,
	// so the search never dead-ends.
	ThreeThreeAll bool
	// Dominance enables the twin dominance/symmetry rules on insertion
	// order: when the inserted species has a placed exact twin at its row
	// minimum, only the position beside that twin is generated (every
	// other position is dominated — delete s and re-insert it beside the
	// twin, and no node rises); and among remaining positions, inserting
	// above a leaf whose sibling is a smaller-indexed twin leaf is skipped
	// (the two children are isomorphic under swapping the twins). Both
	// rules preserve the optimal cost but not the full optimum set, so
	// they disable themselves under CollectAll.
	Dominance bool
}

// Expand generates the children of v in the BBT by inserting permuted
// species v.K at every position, applying the configured 3-3 constraints,
// and returns the survivors sorted by ascending lower bound plus the
// per-rule attribution of every discarded candidate. v must not be
// complete.
//
// The bound check runs BEFORE cloning: each candidate's Cost (and hence
// LB) is computed read-only against the parent, so a pruned child costs no
// allocation at all. ub is the caller's current upper bound (+Inf for an
// unbounded expansion), applied through Prune. Kept children are drawn
// from np (nil allocates fresh nodes). The returned PruneStats has only
// Bound, ThreeThree, Constraint and Dominance components (Expand never
// discards by incumbent or budget); callers fold it in with
// Stats.CountExpand, which counts both survivors and discards as
// Generated.
func (p *Problem) Expand(v *PNode, c Constraints, ub float64, collectAll bool, np *NodePool) (children []*PNode, pruned PruneStats) {
	s := v.K
	if s >= p.n {
		return nil, pruned
	}
	positions := v.Positions()
	var allowed [3]int32
	restricted := false
	if c.ThreeThree && s == 2 {
		restricted = true
		allowed = p.thirdSpeciesPositions()
	}
	tail := p.tail[s+1]
	// The max-distance table lives in the pool's scratch slice, so the
	// pooled steady state allocates nothing (guarded by
	// TestPrunedChildrenAllocateNothing); only the nil-pool path pays for a
	// fresh slice.
	md := np.mdScratch(positions)
	p.maxDistSweep(v, s, md)
	// Dominance rules lose alternate optima, so CollectAll (and the rare
	// restricted third-species step, whose allowed-mask they would fight)
	// turns them off.
	dominance := c.Dominance && !collectAll && !restricted
	if dominance && p.twinSib[s] >= 0 {
		// Rule: s has a placed exact twin s' at its whole-row minimum. Any
		// completion placing s elsewhere rewrites, cost-no-worse, into one
		// with s beside s' — delete leaf s (its parent weighed at least
		// ½·d(s,s'), the row minimum), re-insert it beside s' at exactly
		// ½·d(s,s'), and no ancestor rises because s' already forced every
		// height s needs. Only that one position is generated.
		e := v.leafID[p.twinSib[s]]
		pos := int(e)
		if e > v.root {
			pos--
		}
		pruned.Dominance += int64(positions - 1)
		lb := p.childBound(v, s, pos, md) + tail
		if Prune(lb, ub, collectAll) {
			pruned.Bound++
		} else {
			children = append(children, p.insert(v, s, pos, np, md))
		}
		return children, pruned
	}
	// Without a twin pair the symmetry rule cannot fire anywhere.
	shadow := dominance && p.hasTwins
	for pos := 0; pos < positions; pos++ {
		if restricted && allowed[pos] == 0 {
			pruned.ThreeThree++
			continue
		}
		if shadow && pos < positions-1 {
			e := int32(pos)
			if e >= v.root {
				e++
			}
			if p.twinShadowed(v, e) {
				pruned.Dominance++
				continue
			}
		}
		lb := p.childBound(v, s, pos, md) + tail
		if Prune(lb, ub, collectAll) {
			pruned.Bound++
			continue
		}
		children = append(children, p.insert(v, s, pos, np, md))
	}
	if c.ThreeThreeAll && s >= 2 && len(children) > 0 {
		keep := 0
		for _, ch := range children {
			if p.consistentInsertion(ch, s) {
				keep++
			}
		}
		// Drop inconsistent children in place, unless that would eliminate
		// every child (then the unfiltered set is used so the search never
		// dead-ends).
		if keep > 0 && keep < len(children) {
			w := 0
			for _, ch := range children {
				if p.consistentInsertion(ch, s) {
					children[w] = ch
					w++
				} else {
					pruned.Constraint++
					np.Put(ch)
				}
			}
			children = children[:w]
		}
	}
	SortByLB(children)
	return children, pruned
}

// SortByLB insertion-sorts nodes by ascending LB, stably and without
// allocating. Expand's child counts are at most 2K−1 and close to random,
// so the simple stable sort beats sort.SliceStable; the parallel master's
// frontier is a concatenation of already-sorted child runs, so the same
// insertion sort finishes it in near-linear time. Ascending order is the
// steal-ordering contract: a worker pushing a sorted run worst-first keeps
// its best node at the deque bottom and its worst at the stealable top.
func SortByLB(children []*PNode) {
	for i := 1; i < len(children); i++ {
		for j := i; j > 0 && children[j].LB < children[j-1].LB; j-- {
			children[j], children[j-1] = children[j-1], children[j]
		}
	}
}

// maxDistSweep fills md[x] = max_{j under x} d[s][j] for every node x of
// v's partial topology — the quantity childBound and insert need for each
// candidate position. One leaf-to-root bubbling pass replaces the per-
// position maxDistToMask rescans that used to dominate the search kernel's
// profile: each placed species walks its ancestor path, raising maxima, and
// stops at the first ancestor already at or above its value (some leaf
// below that ancestor carries a larger distance, and that leaf's own walk
// covers the remaining ancestors). The early exit makes the sweep near
// linear in K on typical instances and never worse than the single
// childBound walk it amortizes. max is order-independent, so md is
// bit-identical to the mask rescans it replaces — prune decisions do not
// move. s may be any unplaced species (the propagation bound sweeps every
// one of them), so the scan covers exactly the v.K placed leaves.
func (p *Problem) maxDistSweep(v *PNode, s int, md []float64) {
	row := p.d[s*p.n : s*p.n+p.n]
	for i := range md {
		md[i] = -1
	}
	for sp := 0; sp < v.K; sp++ {
		val := row[sp]
		for x := v.leafID[sp]; x != -1; x = v.parent[x] {
			if md[x] >= val {
				break
			}
			md[x] = val
		}
	}
}

// thirdSpeciesPositions selects insertion positions for species 2 that are
// consistent with the matrix relation on the triple {0, 1, 2}, as a
// membership mask over positions 0..2. Position 0 makes 0 and 2 siblings,
// position 1 makes 1 and 2 siblings, position 2 (above the root) keeps 0
// and 1 siblings.
func (p *Problem) thirdSpeciesPositions() (allowed [3]int32) {
	d01, d02, d12 := p.dist(0, 1), p.dist(0, 2), p.dist(1, 2)
	switch {
	case d01 < d02 && d01 < d12:
		allowed[2] = 1
	case d02 < d01 && d02 < d12:
		allowed[0] = 1
	case d12 < d01 && d12 < d02:
		allowed[1] = 1
	default:
		allowed = [3]int32{1, 1, 1}
	}
	return allowed
}

// consistentInsertion reports whether the triples involving the newly
// placed species s are 3-3 consistent with the matrix in child ch: whenever
// the matrix declares a strict close pair among {s, j, k}, the topology
// must not present a different pair as strictly closer.
func (p *Problem) consistentInsertion(ch *PNode, s int) bool {
	for j := 0; j < s; j++ {
		for k := j + 1; k < s; k++ {
			dsj, dsk, djk := p.dist(s, j), p.dist(s, k), p.dist(j, k)
			hsj := ch.lcaHeight(s, j)
			hsk := ch.lcaHeight(s, k)
			hjk := ch.lcaHeight(j, k)
			var want int // 0 none, 1 (s,j), 2 (s,k), 3 (j,k)
			switch {
			case dsj < dsk && dsj < djk:
				want = 1
			case dsk < dsj && dsk < djk:
				want = 2
			case djk < dsj && djk < dsk:
				want = 3
			}
			if want == 0 {
				continue
			}
			var got int
			switch {
			case hsj < hsk && hsj < hjk:
				got = 1
			case hsk < hsj && hsk < hjk:
				got = 2
			case hjk < hsj && hjk < hsk:
				got = 3
			}
			if got != 0 && got != want {
				return false
			}
		}
	}
	return true
}
