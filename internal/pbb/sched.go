package pbb

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"evotree/internal/bb"
	"evotree/internal/obs"
)

// SchedStats count the work-stealing scheduler's coordination traffic for
// one parallel solve. They are diagnostic only: steals and parks high
// relative to expansions indicate load imbalance (many tiny subproblems),
// zero steals with several workers indicates the initial dispatch already
// balanced the search.
type SchedStats struct {
	Steals  int64 // subproblems stolen from another worker's deque
	Parks   int64 // times a worker parked after an empty spin-and-steal round
	Donates int64 // overflow donations spilled into the global ring
	// Dispatches counts work units handed out by the coordinating side:
	// the master's initial frontier dispatch here, lease grants in the
	// distributed farm (internal/dist reports through the same struct).
	Dispatches int64
	// Requeues counts expired leases returned to the queue. Always zero
	// for the in-process scheduler, whose workers cannot crash separately
	// from the search; the distributed farm counts every lease deadline
	// that lapsed.
	Requeues int64
}

// Add accumulates other into s.
func (s *SchedStats) Add(other SchedStats) {
	s.Steals += other.Steals
	s.Parks += other.Parks
	s.Donates += other.Donates
	s.Dispatches += other.Dispatches
	s.Requeues += other.Requeues
}

// scheduler is the lock-free replacement for the seed engine's
// mutex+cond global pool: one Chase–Lev deque per worker, a small
// mutex-guarded overflow/seed ring (the rump of the paper's global pool),
// atomic in-flight counting for termination detection, and a
// spin-then-park idle protocol.
//
// Invariant: inFlight counts every subproblem that exists anywhere — in a
// deque, in the ring, or in a worker's hands. Nodes are only created by a
// worker that holds their parent, and addInFlight always runs before the
// children become visible (push/donate), so inFlight reaching zero proves
// the search space is exhausted; that transition sets done and wakes every
// parked worker exactly once.
type scheduler struct {
	deques []deque
	ring   globalRing

	inFlight atomic.Int64
	done     atomic.Bool
	parked   atomic.Int64
	wake     chan struct{}

	steals  atomic.Int64
	parks   atomic.Int64
	donates atomic.Int64

	// Gap-telemetry slots, one per worker. sampling is set before the
	// worker goroutines start (the go statement orders the write) and
	// never changes, so the per-node hot-path cost when sampling is off is
	// exactly one predictable branch.
	slots    []telSlot
	sampling bool

	probe obs.Probe
	start time.Time
}

// telSlot is one worker's published telemetry: the lower bound of the
// node it most recently took (Float64bits; +Inf when it holds nothing)
// and its expansion count. Padded so two workers' slots never share a
// cache line.
type telSlot struct {
	openLB   atomic.Uint64
	expanded atomic.Int64
	_        [48]byte
}

// publish stores a worker's current node LB and expansion count for the
// sampler goroutine. Called only when sampling is enabled.
func (s *scheduler) publish(id int, lb float64, expanded int64) {
	sl := &s.slots[id]
	sl.openLB.Store(math.Float64bits(lb))
	sl.expanded.Store(expanded)
}

// telemetry folds the published per-worker slots and the global ring into
// one snapshot: an estimate of the best open lower bound, the summed
// worker expansion count, and the open-node count (inFlight is exact by
// the scheduler invariant). The LB estimate is approximate — deques are
// not scanned, and a worker's slot can be momentarily stale — which is
// the price of keeping the hot path at one branch; sequential engines
// report exact frontier minima instead.
func (s *scheduler) telemetry() (lb float64, expanded int64, frontier int64) {
	lb = math.Inf(1)
	for i := range s.slots {
		if v := math.Float64frombits(s.slots[i].openLB.Load()); v < lb {
			lb = v
		}
		expanded += s.slots[i].expanded.Load()
	}
	if rl := s.ring.minLB(); rl < lb {
		lb = rl
	}
	return lb, expanded, s.inFlight.Load()
}

// spinRounds bounds how many Gosched-yielding retry rounds an idle worker
// burns before parking. Small on purpose: with more workers than cores the
// yield lets a producer run, and parking is cheap (one channel receive).
const spinRounds = 4

func newScheduler(workers int, probe obs.Probe, start time.Time) *scheduler {
	s := &scheduler{
		deques: make([]deque, workers),
		wake:   make(chan struct{}, workers),
		probe:  probe,
		start:  start,
	}
	for i := range s.deques {
		s.deques[i].init()
	}
	s.slots = make([]telSlot, workers)
	for i := range s.slots {
		s.slots[i].openLB.Store(math.Float64bits(math.Inf(1)))
	}
	s.ring.probe, s.ring.start = probe, start
	return s
}

// addInFlight registers n freshly created subproblems. Must run before the
// nodes become stealable (see the scheduler invariant).
func (s *scheduler) addInFlight(n int) {
	if n != 0 {
		s.inFlight.Add(int64(n))
	}
}

// finish marks n subproblems fully consumed (expanded, pruned, or offered)
// and triggers termination when none remain anywhere.
func (s *scheduler) finish(n int) {
	if n == 0 {
		return
	}
	left := s.inFlight.Add(-int64(n))
	if left < 0 {
		panic(fmt.Sprintf("pbb: inFlight underflow (%d)", left))
	}
	if left == 0 {
		s.markDone()
	}
}

// markDone ends the search: every parked worker is handed a wake token and
// every spinning worker observes the flag on its next check.
func (s *scheduler) markDone() {
	s.done.Store(true)
	for i := 0; i < cap(s.wake); i++ {
		select {
		case s.wake <- struct{}{}:
		default:
			return
		}
	}
}

// unpark wakes up to n parked workers. Tokens are buffered, so a token
// sent to a worker that found work on its own is consumed harmlessly by
// the next parker (a spurious wake followed by a re-check).
func (s *scheduler) unpark(n int) {
	if s.parked.Load() == 0 {
		return
	}
	for ; n > 0; n-- {
		select {
		case s.wake <- struct{}{}:
		default:
			return
		}
	}
}

// hasWork reports whether any deque or the ring holds a node. Used only on
// the park slow path to close the race between "I saw nothing to steal"
// and "I registered as parked".
func (s *scheduler) hasWork() bool {
	if s.ring.size.Load() > 0 {
		return true
	}
	for i := range s.deques {
		if s.deques[i].size() > 0 {
			return true
		}
	}
	return false
}

// trySteal scans the other workers' deques from a random offset and takes
// the first stealable node — the victim's oldest, highest-LB subproblem.
// A lost CAS race means the deque still has (or just had) work, so a
// contended rotation is retried once before giving up.
func (s *scheduler) trySteal(self int, rng *uint64) *bb.PNode {
	n := len(s.deques)
	if n == 1 {
		return nil
	}
	for round := 0; round < 2; round++ {
		contended := false
		off := int(xorshift(rng) % uint64(n))
		for i := 0; i < n; i++ {
			victim := off + i
			if victim >= n {
				victim -= n
			}
			if victim == self {
				continue
			}
			v, retry := s.deques[victim].steal()
			if v != nil {
				return v
			}
			if retry {
				contended = true
			}
		}
		if !contended {
			return nil
		}
	}
	return nil
}

// next hands the worker its next subproblem: own deque bottom first
// (cache-hot DFS order), then the overflow/seed ring, then stealing, then
// a bounded spin, then park. It returns ok=false only when the search has
// terminated globally.
func (s *scheduler) next(self int, rng *uint64, t *workerTel) (*bb.PNode, bool) {
	d := &s.deques[self]
	for {
		if v := d.pop(); v != nil {
			return v, true
		}
		if s.probe != nil {
			s.probe.Emit(obs.Event{Kind: obs.WorkerDrain, Worker: self,
				Nodes: t.stats.Expanded, Elapsed: time.Since(s.start)})
		}
		for spin := 0; ; spin++ {
			if v := s.ring.get(self); v != nil {
				return v, true
			}
			if v := s.trySteal(self, rng); v != nil {
				t.pendingSteals++
				s.steals.Add(1)
				return v, true
			}
			if s.done.Load() {
				return nil, false
			}
			if spin >= spinRounds {
				break
			}
			runtime.Gosched()
		}
		// Park: register first, then re-check, so a producer that pushed
		// after our failed steals is guaranteed to either be seen by the
		// re-check or to see our parked registration and send a token.
		s.parked.Add(1)
		if s.hasWork() || s.done.Load() {
			s.parked.Add(-1)
			continue
		}
		s.parks.Add(1)
		t.park()
		<-s.wake
		s.parked.Add(-1)
	}
}

// spill moves the worst half of the worker's own deque into the ring when
// a push overflowed the deque's capacity bound. Overflow donations are the
// only donations left in the work-stealing design — load balancing itself
// happens via steals — and keep the obs.PoolDonate event meaningful.
func (s *scheduler) spill(self int, d *deque) {
	half := d.size()/2 + 1
	for i := int64(0); i < half; i++ {
		v, _ := d.steal() // self-steal the top: the worst nodes we hold
		if v == nil {
			return
		}
		s.donates.Add(1)
		s.ring.put(v, self, obs.PoolDonate)
	}
	s.unpark(int(half))
}

// pushLocal appends v to the worker's own deque, spilling to the ring on
// overflow. The caller must have already counted v in-flight.
func (s *scheduler) pushLocal(self int, d *deque, v *bb.PNode) {
	for !d.push(v) {
		s.spill(self, d)
	}
}

// globalRing is what remains of the paper's global pool: a small
// mutex-guarded LB-ordered heap holding the master's seed share and
// overflow donations. It is read on the idle path only, never while a
// worker has local work, so the mutex is off the hot path; the atomic size
// lets idle workers skip the lock when the ring is empty.
type globalRing struct {
	mu    sync.Mutex
	items bb.LBHeap
	size  atomic.Int64
	gets  atomic.Int64
	puts  atomic.Int64
	probe obs.Probe
	start time.Time
}

// put adds a subproblem. kind distinguishes a master dispatch
// (obs.PoolPut) from an overflow donation (obs.PoolDonate).
func (r *globalRing) put(v *bb.PNode, worker int, kind obs.Kind) {
	r.mu.Lock()
	heap.Push(&r.items, v)
	n := int64(r.items.Len())
	r.size.Store(n)
	r.mu.Unlock()
	r.puts.Add(1)
	if r.probe != nil {
		r.probe.Emit(obs.Event{Kind: kind, Worker: worker,
			Nodes: n, Elapsed: time.Since(r.start)})
	}
}

// minLB returns the lower bound of the ring's most promising node, +Inf
// when empty. Sampler-only: reads the heap root under the ring mutex.
func (r *globalRing) minLB() float64 {
	if r.size.Load() == 0 {
		return math.Inf(1)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.items.Len() == 0 {
		return math.Inf(1)
	}
	return r.items[0].LB
}

// get pops the most promising pooled node, or nil when the ring is empty.
// Non-blocking: idle waiting is the scheduler's job, not the ring's.
func (r *globalRing) get(worker int) *bb.PNode {
	if r.size.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	if r.items.Len() == 0 {
		r.mu.Unlock()
		return nil
	}
	v := heap.Pop(&r.items).(*bb.PNode)
	n := int64(r.items.Len())
	r.size.Store(n)
	r.mu.Unlock()
	r.gets.Add(1)
	if r.probe != nil {
		r.probe.Emit(obs.Event{Kind: obs.PoolGet, Worker: worker,
			Nodes: n, Elapsed: time.Since(r.start)})
	}
	return v
}

// workerTel batches a worker's chatty scheduler telemetry: steal counts
// accumulate in a plain field and flush as one obs.Steal event when the
// worker parks or finishes, so the steal hot path never calls the probe.
// Park events are emitted per park — parking is already the slow path.
type workerTel struct {
	id            int
	probe         obs.Probe
	start         time.Time
	stats         *bb.Stats
	pendingSteals int64
}

// park emits the park event, flushing pending steal counts first.
func (t *workerTel) park() {
	if t.probe == nil {
		return
	}
	t.flush()
	t.probe.Emit(obs.Event{Kind: obs.Park, Worker: t.id,
		Nodes: t.stats.Expanded, Elapsed: time.Since(t.start)})
}

// flush emits the batched steal counter if any steals are pending.
func (t *workerTel) flush() {
	if t.probe == nil || t.pendingSteals == 0 {
		return
	}
	t.probe.Emit(obs.Event{Kind: obs.Steal, Worker: t.id,
		Nodes: t.pendingSteals, Elapsed: time.Since(t.start)})
	t.pendingSteals = 0
}

// xorshift is a tiny per-worker PRNG for victim selection: allocation-free
// and deterministic per worker id, so scheduler runs are reproducible
// modulo goroutine interleaving.
func xorshift(state *uint64) uint64 {
	x := *state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*state = x
	return x
}
