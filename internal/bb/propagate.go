package bb

// This file implements the ultrametric propagation bound: an
// exactness-preserving strengthening of the paper's tail lower bound
// obtained by propagating the three-point ultrametric condition of the
// partial tree onto the species that are still unplaced (the attack Moore
// & Prosser describe for ultrametric CSPs, specialized to the MUT branch
// rule).
//
// The tail bound charges every unplaced species t its matrix floor
// δ_t = ½·min_{j<t} d(t,j), ignoring the partial topology entirely. But a
// completion has to put t somewhere, and the three-point condition prices
// each choice against the CURRENT tree: if t lands beside the clade of
// node x, the node that joins them must reach
//
//	NN_t(x) = max(h(x), ½·max_{j under x} d(t,j)),
//
// and every ancestor w of x must rise to at least ½·max_{j under w} d(t,j)
// — an extra A_t(w) = max(0, ½·md_t(w) − h(w)) each, accumulated top-down
// as S_t(x). The only escape from the placed tree is attaching beside an
// earlier-but-also-unplaced species t', which still costs the follower
// floor ½·min_{t'∈[K,t)} d(t,t'). Minimizing over every escape gives the
// guaranteed spend of species t:
//
//	spend_t = min( min_x NN_t(x) + S_t(x),  followHalf[K][t] )
//
// and spend_t − δ_t ≥ 0 is the amount the tail bound undercharges t.
//
// Soundness of charging ONE species this way (see PropagatedLB): in any
// completion T, the cost decomposes over disjoint node families — the
// counterparts of v's nodes (the LCA in T of each v-clade) plus the one
// internal node u_t created per inserted species t. The standard tail
// proof charges δ_t to u_t and h(x) to each counterpart. For a single
// chosen species t*, u_{t*} is worth NN_{t*}(x) instead of δ_{t*} and the
// counterparts of x's ancestors are worth their A_{t*} raises on top of
// their h — or, if t* attaches among unplaced species only, u_{t*} is
// worth the follower floor. No summand is claimed twice, so
//
//	ω(T) ≥ Cost(v) + tail[K] + (spend_{t*} − δ_{t*})
//
// for every t*, hence for the maximizing one. Raises of DIFFERENT species
// land on the SAME ancestor counterparts, so the increments must never be
// summed across species — the max is the whole headroom.
//
// The search only asks a yes/no question of this bound: does it prune
// against the incumbent? PropagatedPrune answers it without computing the
// max. Writing cap_t = followHalf[K][t] − δ_t for the most species t can
// add, it visits species in descending cap order (a per-K table built by
// NewProblem) and stops at the first cap that cannot prune, at the first
// point a species' running spend cannot, and at the first species that
// proves the prune. Each exit is exact because floating-point + and − are
// monotone, so every prune decision equals Prune(PropagatedLB(v), …).
// The cost per pop is O(candidates × K) with early exit, where candidates
// are the species whose cap prunes — not O(placed × unplaced).

// PropagatedLB returns the strongest lower bound the propagation layer
// proves for v: v.LB plus the best single-species undercharge (zero for a
// complete topology). The bound is exactness-preserving — every
// completion of v costs at least PropagatedLB(v) — so engines may prune
// against it exactly like v.LB. Scratch comes from np (nil allocates);
// the pooled steady state allocates nothing. Species are tried in
// descending cap order, so once a cap cannot beat the running best no
// later species can and the loop ends; a walk likewise stops once its
// running spend cannot. Worst case O((n−K)·K).
func (p *Problem) PropagatedLB(v *PNode, np *NodePool) float64 {
	k := v.K
	if k >= p.n {
		return v.LB
	}
	md, stk, raise := np.propScratch(2*k - 1)
	extra := 0.0
	for _, t := range p.capOrder[k*p.n : (k+1)*p.n-k] {
		// With base 0, ub extra and collectAll, undercharge asks exactly
		// e_t > extra: it gives up on species that cannot raise the max.
		if p.propCap(k, t) <= extra {
			break
		}
		if e, ok := p.undercharge(v, t, 0, extra, true, md, stk, raise); ok {
			extra = e
		}
	}
	return v.LB + extra
}

// PropagatedPrune reports whether Prune(PropagatedLB(v), ub, collectAll)
// holds — the only question the search asks of the propagation layer —
// without computing the whole bound. The bound is a max over species of
// v.LB + e_t (and v.LB itself), and floating-point + and − are monotone,
// so three exits are exact:
//
//  1. e_t ≤ cap_t = followHalf[K][t] − δ_t, so a species whose cap does not
//     prune cannot decide the prune; species run in descending cap order,
//     so the first such cap ends the test with false.
//  2. A species' walk stops as soon as v.LB + (minSpend − δ_t) no longer
//     prunes: minSpend only falls as the walk proceeds.
//  3. The first species whose finished walk prunes ends the test with true.
//
// Scratch comes from np exactly as for PropagatedLB.
func (p *Problem) PropagatedPrune(v *PNode, ub float64, collectAll bool, np *NodePool) bool {
	if Prune(v.LB, ub, collectAll) {
		return true
	}
	k := v.K
	if k >= p.n {
		return false
	}
	md, stk, raise := np.propScratch(2*k - 1)
	for _, t := range p.capOrder[k*p.n : (k+1)*p.n-k] {
		if !Prune(v.LB+p.propCap(k, t), ub, collectAll) {
			return false
		}
		if _, ok := p.undercharge(v, t, v.LB, ub, collectAll, md, stk, raise); ok {
			return true
		}
	}
	return false
}

// propCap returns cap_t = followHalf[k][t] − δ_t, the largest undercharge
// species t can show at a k-leaf node: its spend never exceeds the
// follower floor.
func (p *Problem) propCap(k int, t int32) float64 {
	return p.followHalf[k*p.n+int(t)] - (p.tail[t] - p.tail[t+1])
}

// undercharge computes species t's undercharge e_t = spend_t − δ_t at v
// and reports whether Prune(base + e_t, ub, collectAll) holds. The caller
// has checked that the cap prunes; the walk gives up, reporting false,
// as soon as its running spend no longer does. md, stk and raise are the
// propagation scratch of length 2K−1.
func (p *Problem) undercharge(v *PNode, t int32, base, ub float64, collectAll bool, md []float64, stk []int32, raise []float64) (float64, bool) {
	delta := p.tail[t] - p.tail[t+1]
	minSpend := p.followHalf[v.K*p.n+int(t)]
	p.maxDistSweep(v, int(t), md)
	// Top-down pass over v: for every node x, the joining-node floor
	// NN_t(x) plus the accumulated ancestor raises S_t(x). raise carries S
	// along the explicit DFS stack.
	stk[0], raise[0] = v.root, 0
	sp := 1
	for sp > 0 {
		sp--
		x, acc := stk[sp], raise[sp]
		hx := v.height[x]
		half := md[x] / 2
		val := hx + acc
		if half > hx {
			val = half + acc
		}
		if val < minSpend {
			minSpend = val
			if !Prune(base+(minSpend-delta), ub, collectAll) {
				return 0, false
			}
		}
		if l := v.left[x]; l != -1 {
			a := acc
			if half > hx {
				a += half - hx // A_t(x), charged to both subtrees
			}
			stk[sp], raise[sp] = l, a
			stk[sp+1], raise[sp+1] = v.right[x], a
			sp += 2
		}
	}
	return minSpend - delta, true
}

// twinShadowed reports whether the insertion position above node e is
// discarded by the twin symmetry rule: e is a leaf whose sibling is a
// smaller-indexed exact twin leaf. The two positions then generate
// subtrees that are isomorphic under swapping the twins (a matrix
// automorphism), and the completion set of the kept position covers the
// pruned one cost-for-cost — safe whenever a single optimum suffices.
func (p *Problem) twinShadowed(v *PNode, e int32) bool {
	s := v.species[e]
	if s < 0 {
		return false
	}
	par := v.parent[e]
	if par == -1 {
		return false
	}
	other := v.left[par]
	if other == e {
		other = v.right[par]
	}
	os := v.species[other]
	return os >= 0 && os < s && p.twinRep[os] == p.twinRep[s]
}
