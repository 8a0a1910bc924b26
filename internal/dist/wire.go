// Package dist is the distributed solve farm: a coordinator process that
// decomposes a minimum-ultrametric-tree instance into work units and
// leases them to worker processes over a small HTTP/JSON protocol, plus
// the worker loop itself. It turns the paper's "16-node Linux cluster"
// setting into a real multi-process engine: the coordinator runs the
// compact-set decomposition (or slices frontier batches off the whole-
// matrix branch-and-bound pool), workers solve units against the shared
// incumbent bound, and the coordinator broadcasts every strict bound
// improvement as an epoch-stamped update so workers lazily re-prune —
// the networked analogue of the in-process scheduler's atomic epoch.
//
// # Wire format
//
// Work units and incumbent solutions both travel as insertion paths
// (bb.Path/bb.WalkPath): a unit is "matrix id + the positions that
// rebuild its seed node", a solution is the full-length path of a
// complete topology plus its claimed cost. The receiving side replays
// the path and recomputes every bound itself, so a malformed or
// dishonest message can be rejected outright and the shared bound can
// never be poisoned below a realizable cost.
//
// # Fault tolerance
//
// Leases carry deadlines and sequence numbers. A crashed or hung
// worker's unit is returned to the queue when its deadline lapses, and
// results are accepted only when their sequence number matches the
// unit's current lease — so a unit is folded into the search statistics
// exactly once no matter how often it is re-leased, and the accounting
// identity (Generated + Roots == Expanded + Pruned + Completed) holds
// across the whole farm. Late results from expired leases still offer
// their solution to the incumbent (bounds only tighten; the offer is
// idempotent) but contribute no statistics.
package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"evotree/internal/bb"
	"evotree/internal/matrix"
)

// Protocol endpoints, all rooted under the coordinator's base URL.
const (
	pathJob    = "/v1/job"    // GET: job description (matrices, options)
	pathLease  = "/v1/lease"  // POST: acquire a work-unit lease
	pathResult = "/v1/result" // POST: report a finished unit
	pathBound  = "/v1/bound"  // POST: offer an incumbent improvement
	pathBounds = "/v1/bounds" // GET: long-poll the epoch-stamped bounds
)

// wireMatrix ships one distance matrix. Distances travel as JSON numbers
// (Go encodes float64 with strconv's shortest round-trip form), so the
// worker reconstructs a bit-identical matrix and both sides derive the
// same max–min permutation and the same bounds.
type wireMatrix struct {
	ID    int         `json:"id"`
	Names []string    `json:"names"`
	D     [][]float64 `json:"d"`
}

func toWireMatrix(id int, m *matrix.Matrix) wireMatrix {
	n := m.Len()
	d := make([][]float64, n)
	for i := 0; i < n; i++ {
		d[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			d[i][j] = m.At(i, j)
		}
	}
	return wireMatrix{ID: id, Names: m.Names(), D: d}
}

func (w wireMatrix) toMatrix() (*matrix.Matrix, error) {
	n := len(w.D)
	if n == 0 || len(w.Names) != n {
		return nil, fmt.Errorf("dist: matrix %d: %d rows, %d names", w.ID, n, len(w.Names))
	}
	m, err := matrix.NewWithNames(w.Names)
	if err != nil {
		return nil, fmt.Errorf("dist: matrix %d: %w", w.ID, err)
	}
	for i := range w.D {
		if len(w.D[i]) != n {
			return nil, fmt.Errorf("dist: matrix %d: row %d has %d entries, want %d", w.ID, i, len(w.D[i]), n)
		}
		for j := range w.D[i] {
			m.Set(i, j, w.D[i][j])
		}
	}
	return m, nil
}

// jobInfo is the GET /v1/job response: everything a worker needs to
// rebuild the coordinator's bb.Problems deterministically.
type jobInfo struct {
	Job         string         `json:"job"`
	UseMaxMin   bool           `json:"use_max_min"`
	Constraints bb.Constraints `json:"constraints"`
	Propagate   bool           `json:"propagate"`
	Matrices    []wireMatrix   `json:"matrices"`
	LeaseTTLMS  int64          `json:"lease_ttl_ms"`
	Epoch       uint64         `json:"epoch"`
	Bounds      []wireBound    `json:"bounds"`
}

// wireBound is one matrix's current incumbent upper bound.
type wireBound struct {
	Matrix int     `json:"matrix"`
	Cost   float64 `json:"cost"`
}

// leaseRequest asks for a work unit.
type leaseRequest struct {
	Job    string `json:"job"`
	Worker string `json:"worker"`
}

// leaseResponse grants a unit (or reports there is nothing to do).
type leaseResponse struct {
	// Done: every unit is finished; the worker can exit.
	Done bool `json:"done,omitempty"`
	// Wait: nothing leasable right now (every pending unit is held by
	// someone else); poll again shortly.
	Wait bool `json:"wait,omitempty"`

	Unit   int    `json:"unit"`
	Seq    uint64 `json:"seq"`
	Matrix int    `json:"matrix"`
	Path   []int  `json:"path"`
	// Limited caps the unit's expansions at Budget (the remaining global
	// MaxNodes allowance); an exhausted budget arrives as Limited with
	// Budget 0 and makes the worker abandon the unit as a budget prune.
	Limited bool  `json:"limited,omitempty"`
	Budget  int64 `json:"budget,omitempty"`

	Epoch  uint64      `json:"epoch"`
	Bounds []wireBound `json:"bounds"`
}

// wireSolution is a complete topology as an insertion path plus the
// sender's claimed cost. The receiver replays the path and trusts only
// its own arithmetic.
type wireSolution struct {
	Matrix int     `json:"matrix"`
	Path   []int   `json:"path"`
	Cost   float64 `json:"cost"`
}

// resultRequest reports a finished (or budget-truncated) unit.
type resultRequest struct {
	Job    string `json:"job"`
	Worker string `json:"worker"`
	Unit   int    `json:"unit"`
	Seq    uint64 `json:"seq"`
	// Truncated: the unit's expansion budget ran out; OpenLB carries the
	// best lower bound among the abandoned nodes when HasOpen is set
	// (+Inf is not JSON-encodable, so absence means "none open").
	Truncated bool     `json:"truncated,omitempty"`
	HasOpen   bool     `json:"has_open,omitempty"`
	OpenLB    float64  `json:"open_lb,omitempty"`
	Stats     bb.Stats `json:"stats"`
	// Best is the cheapest complete topology the unit found, if any.
	// Normally already published via POST /v1/bound; carried here too so
	// a lost broadcast cannot lose the optimum.
	Best *wireSolution `json:"best,omitempty"`
}

// resultResponse acknowledges a result.
type resultResponse struct {
	// Accepted: the unit was open under this exact lease and its
	// statistics were folded into the farm totals. A false value means
	// the lease was stale (expired, superseded, duplicate) — the work is
	// discarded except for any solution it carried.
	Accepted bool        `json:"accepted"`
	Reason   string      `json:"reason,omitempty"`
	Epoch    uint64      `json:"epoch"`
	Bounds   []wireBound `json:"bounds"`
}

// boundRequest offers an incumbent improvement.
type boundRequest struct {
	Job      string       `json:"job"`
	Worker   string       `json:"worker"`
	Solution wireSolution `json:"solution"`
}

// boundsResponse is the long-poll payload: the full per-matrix bound
// table stamped with its epoch.
type boundsResponse struct {
	Epoch  uint64      `json:"epoch"`
	Done   bool        `json:"done,omitempty"`
	Bounds []wireBound `json:"bounds"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// readJSON decodes the request body into v, rejecting trailing garbage.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("dist: trailing data after JSON body")
	}
	return nil
}

// validCost reports whether a claimed solution cost is a usable bound.
func validCost(c float64) bool {
	return !math.IsNaN(c) && !math.IsInf(c, 0) && c >= 0
}
