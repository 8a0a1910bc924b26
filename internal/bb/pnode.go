package bb

import (
	"unsafe"

	"evotree/internal/tree"
)

// PNode is one node of the branch-and-bound tree (BBT): a partial topology
// over the first K permuted species together with its minimal ultrametric
// realization (heights), its cost, and its lower bound. PNodes are
// self-contained values so pools may move them freely between workers.
//
// All per-node storage lives in a single slab allocation sized for the
// complete topology (2n−1 tree nodes), carved into the typed views below.
// A partial topology with K leaves occupies entries [0, 2K−1) of each view
// (and [0, K) of leafID); the remaining capacity is used in place as the
// topology grows, so inserting a species never reallocates.
type PNode struct {
	K    int     // number of species placed (permuted ids 0..K-1)
	Cost float64 // ω of the minimal UT realizing this partial topology
	LB   float64 // Cost + tail(K); monotone along any root-to-leaf BBT path

	root   int32
	sumInt float64 // Σ height over internal nodes (cost = sumInt + h(root))

	// Flat binary-tree storage; node ids index these views into the slab.
	parent  []int32
	left    []int32
	right   []int32
	species []int32 // permuted species id for leaves, -1 for internal
	leafID  []int32 // permuted species id -> node id (length n)
	height  []float64
	mask    []uint64 // set of permuted species under each node
}

// newPNode allocates a node for an n-species problem: one slab holds every
// field. The slab is a []uint64 (8-byte aligned by construction), so the
// float64 and int32 views carved from it with unsafe.Slice are always
// correctly aligned; the derived slices keep the backing array alive.
func newPNode(n int) *PNode {
	maxN := 2*n - 1                   // tree nodes in a complete topology
	nInt32 := 4*maxN + n              // parent, left, right, species + leafID
	words := 2*maxN + (nInt32+1)/2    // mask + height + packed int32 area
	slab := make([]uint64, words)
	v := &PNode{}
	v.mask = slab[:maxN:maxN]
	v.height = unsafe.Slice((*float64)(unsafe.Pointer(&slab[maxN])), maxN)
	ints := unsafe.Slice((*int32)(unsafe.Pointer(&slab[2*maxN])), nInt32)
	v.parent = ints[0*maxN : 1*maxN : 1*maxN]
	v.left = ints[1*maxN : 2*maxN : 2*maxN]
	v.right = ints[2*maxN : 3*maxN : 3*maxN]
	v.species = ints[3*maxN : 4*maxN : 4*maxN]
	v.leafID = ints[4*maxN : 4*maxN+n : 4*maxN+n]
	return v
}

// copyFrom overwrites c with v's partial topology. Both nodes must belong
// to problems of the same size.
func (c *PNode) copyFrom(v *PNode) {
	nn := 2*v.K - 1
	c.K, c.Cost, c.LB = v.K, v.Cost, v.LB
	c.root, c.sumInt = v.root, v.sumInt
	copy(c.parent[:nn], v.parent[:nn])
	copy(c.left[:nn], v.left[:nn])
	copy(c.right[:nn], v.right[:nn])
	copy(c.species[:nn], v.species[:nn])
	copy(c.height[:nn], v.height[:nn])
	copy(c.mask[:nn], v.mask[:nn])
	copy(c.leafID[:v.K], v.leafID[:v.K])
}

// NodePool is a free list of PNodes for one problem. It is NOT safe for
// concurrent use: every search goroutine owns its own pool (the paper's
// per-worker discipline), and nodes may migrate between pools freely
// because all nodes of a problem share one slab layout. A nil *NodePool is
// valid and simply allocates fresh nodes.
type NodePool struct {
	n    int
	free []*PNode
	md   []float64 // Expand's per-species max-distance sweep scratch

	// Propagation scratch (PropagatedLB, PropagatedPrune): a second max-distance table —
	// separate from md so a pop-time bound never clobbers an in-progress
	// expansion — plus the node stack and accumulated-raise stack of the
	// top-down pass. Reused across calls so the pooled steady state
	// allocates nothing (the AllocsPerRun guards cover the propagate path).
	pmd    []float64
	pstk   []int32
	praise []float64
}

// NewPool returns an empty free list for p's node size.
func (p *Problem) NewPool() *NodePool { return &NodePool{n: p.n} }

// get returns a recycled node, or a freshly allocated one when the free
// list is empty (or the pool is nil). n is the problem size, needed for
// the nil-pool path.
func (np *NodePool) get(n int) *PNode {
	if np == nil || len(np.free) == 0 {
		return newPNode(n)
	}
	v := np.free[len(np.free)-1]
	np.free[len(np.free)-1] = nil
	np.free = np.free[:len(np.free)-1]
	return v
}

// mdScratch returns a length-nn scratch slice for Expand's max-distance
// sweep, reused across expansions so the steady state allocates nothing. A
// nil pool allocates a fresh slice (the nil-pool slow path).
func (np *NodePool) mdScratch(nn int) []float64 {
	if np == nil {
		return make([]float64, nn)
	}
	if cap(np.md) < nn {
		np.md = make([]float64, nn)
	}
	return np.md[:nn]
}

// propScratch returns the propagation pass's scratch: a length-nn
// max-distance table plus node/raise stacks of capacity nn. A nil pool
// allocates fresh slices (the nil-pool slow path, mirroring mdScratch).
func (np *NodePool) propScratch(nn int) (md []float64, stk []int32, raise []float64) {
	if np == nil {
		return make([]float64, nn), make([]int32, nn), make([]float64, nn)
	}
	if cap(np.pmd) < nn {
		np.pmd = make([]float64, nn)
		np.pstk = make([]int32, nn)
		np.praise = make([]float64, nn)
	}
	return np.pmd[:nn], np.pstk[:nn], np.praise[:nn]
}

// Put recycles a node the caller no longer references. Putting nil is a
// no-op, as is putting into a nil pool.
func (np *NodePool) Put(v *PNode) {
	if np == nil || v == nil {
		return
	}
	np.free = append(np.free, v)
}

// Root returns the BBT root: the unique topology on permuted species 0, 1
// (Step 2 of BBU).
func (p *Problem) Root() *PNode {
	h := p.dist(0, 1) / 2
	v := newPNode(p.n)
	v.K = 2
	v.parent[0], v.parent[1], v.parent[2] = 2, 2, -1
	v.left[0], v.left[1], v.left[2] = -1, -1, 0
	v.right[0], v.right[1], v.right[2] = -1, -1, 1
	v.species[0], v.species[1], v.species[2] = 0, 1, -1
	v.height[0], v.height[1], v.height[2] = 0, 0, h
	v.mask[0], v.mask[1], v.mask[2] = 1, 2, 3
	v.leafID[0], v.leafID[1] = 0, 1
	v.root = 2
	v.sumInt = h
	v.Cost = v.sumInt + h
	v.LB = v.Cost + p.tail[2]
	return v
}

// Positions returns the number of children Expand will consider for v: one
// per edge of the partial topology plus one above the root, i.e. 2K−1.
func (v *PNode) Positions() int { return 2*v.K - 1 }

// Complete reports whether v places all species of p.
func (v *PNode) Complete(p *Problem) bool { return v.K == p.n }

// childBound computes the Cost a child of v would have after inserting
// permuted species s at pos — the same arithmetic insert performs, but
// read-only and without cloning, so children that prune against the upper
// bound never allocate. pos has insert's meaning. md is the per-node
// max-distance table for species s (see maxDistSweep): md[x] equals
// maxDistToMask(s, v.mask[x]), precomputed once per expansion so the 2K−1
// candidate positions share one sweep instead of rescanning leaf masks.
func (p *Problem) childBound(v *PNode, s, pos int, md []float64) float64 {
	if pos == 2*v.K-2 {
		// Insert above the root.
		h := md[v.root] / 2
		if hr := v.height[v.root]; hr > h {
			h = hr
		}
		// Written as two additions so the result is bit-identical to
		// insert's (sumInt += h; Cost = sumInt + h) sequence: the prune
		// decision must agree exactly with the LB insert would produce.
		return v.sumInt + h + h
	}
	e := int32(pos)
	if e >= v.root {
		e++ // the root has no parent edge
	}
	h := md[e] / 2
	if v.height[e] > h {
		h = v.height[e]
	}
	sum := v.sumInt + h
	// Walk the ancestors exactly like insert's propagation loop, tracking
	// the new height of the on-path child (hc) without writing anything.
	hc := h
	child := e
	for u := v.parent[e]; u != -1; u = v.parent[u] {
		other := v.left[u]
		if other == child {
			other = v.right[u]
		}
		hu := v.height[u]
		if hc > hu {
			hu = hc
		}
		if hx := md[other] / 2; hx > hu {
			hu = hx
		}
		sum += hu - v.height[u]
		hc = hu
		child = u
	}
	return sum + hc // hc is the new root height
}

// insert returns a copy of v with permuted species s added, drawn from np.
// pos selects the insertion position: pos in [0, 2K−2) indexes an edge (the
// parent edge of node pos, skipping the root, in node-id order), and
// pos == 2K−2 inserts above the root. The new node's Cost and LB are set.
// md is the same max-distance table childBound used; every lookup below
// reads a node that predates the insertion, so v's table is valid for c.
func (p *Problem) insert(v *PNode, s, pos int, np *NodePool, md []float64) *PNode {
	c := np.get(p.n)
	c.copyFrom(v)
	sb := uint64(1) << uint(s)
	leaf := int32(2*v.K - 1) // the new leaf node
	in := leaf + 1           // the new internal node
	c.species[leaf], c.parent[leaf] = int32(s), -1
	c.left[leaf], c.right[leaf] = -1, -1
	c.height[leaf], c.mask[leaf] = 0, sb
	c.leafID[s] = leaf
	c.species[in], c.parent[in] = -1, -1
	c.left[in], c.right[in] = -1, -1
	c.height[in], c.mask[in] = 0, 0

	if pos == 2*v.K-2 {
		// Insert above the root: in becomes the new root with children
		// (old root, leaf).
		old := c.root
		h := md[old] / 2
		if c.height[old] > h {
			h = c.height[old]
		}
		c.left[in], c.right[in] = old, leaf
		c.parent[old], c.parent[leaf] = in, in
		c.mask[in] = c.mask[old] | sb
		c.height[in] = h
		c.root = in
		c.sumInt += h
	} else {
		// Insert on the parent edge of node e (skipping the root in
		// node-id order).
		e := int32(pos)
		if e >= c.root {
			e++ // the root has no parent edge
		}
		par := c.parent[e]
		h := md[e] / 2
		if c.height[e] > h {
			h = c.height[e]
		}
		c.left[in], c.right[in] = e, leaf
		c.parent[e], c.parent[leaf] = in, in
		c.parent[in] = par
		if c.left[par] == e {
			c.left[par] = in
		} else {
			c.right[par] = in
		}
		c.mask[in] = c.mask[e] | sb
		c.height[in] = h
		c.sumInt += h
		// Propagate the new species upward: each ancestor may need to
		// raise its height for the new cross pairs (s, j) with j under
		// its other child, and must absorb any height increase below.
		child := in
		for u := par; u != -1; u = c.parent[u] {
			other := c.left[u]
			if other == child {
				other = c.right[u]
			}
			h := c.height[u]
			if hc := c.height[child]; hc > h {
				h = hc
			}
			if hx := md[other] / 2; hx > h {
				h = hx
			}
			c.sumInt += h - c.height[u]
			c.height[u] = h
			c.mask[u] |= sb
			child = u
		}
	}
	c.K = v.K + 1
	c.Cost = c.sumInt + c.height[c.root]
	c.LB = c.Cost + p.tail[c.K]
	return c
}

// Tree materializes the partial topology as a tree.Tree labeled with the
// ORIGINAL species indices (undoing the max–min permutation) and carrying
// the original species names.
func (v *PNode) Tree(p *Problem) *tree.Tree {
	nn := 2*v.K - 1
	t := &tree.Tree{Nodes: make([]tree.Node, nn), Root: int(v.root)}
	for i := 0; i < nn; i++ {
		sp := int(v.species[i])
		if sp >= 0 {
			sp = p.perm[sp]
		}
		t.Nodes[i] = tree.Node{
			Species: sp,
			Left:    int(v.left[i]),
			Right:   int(v.right[i]),
			Parent:  int(v.parent[i]),
			Height:  v.height[i],
		}
	}
	t.SetNames(p.names)
	return t
}

// lcaHeight returns the height of the LCA of permuted species a and b in
// the partial topology.
func (v *PNode) lcaHeight(a, b int) float64 {
	x := v.leafID[a]
	bb := uint64(1) << uint(b)
	for x != -1 {
		if v.mask[x]&bb != 0 {
			return v.height[x]
		}
		x = v.parent[x]
	}
	return v.height[v.root]
}
