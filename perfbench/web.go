package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"evotree/internal/matrix"
	"evotree/internal/web"
)

const (
	// webHitRate and webMissRate are the open-loop arrival rates of the
	// hit phase and the miss phase, each about 30% of that phase's
	// closed-loop capacity on the two-CPU host the benchmark was made on.
	// At half capacity the host's speed swings pushed the open loop close
	// to saturation and doubled the median latency of some runs. They are
	// constants so that every commit is offered the same load.
	webHitRate  = 400.0
	webMissRate = 250.0
	// webOpenShare is the share of the measured time spent in each
	// open-loop phase; the rest of the time budget is left to the
	// closed-loop batches.
	webOpenShare = 0.35
	// webBatch is the number of requests of one closed-loop batch of
	// misses, and webBatches the number of batches.
	webBatch   = 200
	webBatches = 20
	// webHeavyEvery: one miss in this many is a heavy bb solve.
	webHeavyEvery = 100
	// webReplay is how many hit-phase requests the traced run replays
	// through matrix.ParseString and CanonicalFingerprint.
	webReplay = 1000
	// webWorkingSet is the number of cached matrices that hits replay. It
	// fits the server's 1024-entry LRU cache and stays hot there while the
	// unique solves cycle through the rest.
	webWorkingSet = 64
)

// Request kinds.
const (
	kindHit     = iota // relabelled working-set matrix: a cache hit
	kindCompact        // unique n=24-32 matrix, algorithm "compact"
	kindHeavy          // unique uniform n=18 matrix, algorithm "bb" (rules off)
)

// missKinds returns n miss kinds in a seed-shuffled order: one in
// webHeavyEvery heavy, the rest compact solves.
func missKinds(rng *rand.Rand, n int) []int {
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = kindCompact
		if i < n/webHeavyEvery {
			kinds[i] = kindHeavy
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// webReq is one scheduled request.
type webReq struct {
	kind  int
	body  []byte  // JSON payload
	want  float64 // hits: the cost of the original solve
	upgmm float64
}

type webRunner struct {
	rng        *rand.Rand
	srv        *web.Server
	hs         *http.Server
	served     chan error
	url        string
	client     *http.Client
	working    []*matrix.Matrix
	wantOf     []float64
	heavy      int   // heavy requests drawn so far
	heavyOrder []int // order of the heavy bases
}

func setupWeb(seed int64) (runner, error) {
	r := &webRunner{rng: rand.New(rand.NewSource(seed))}
	r.srv = web.NewServer()
	r.srv.Workers = workers
	r.srv.JobWorkers = workers
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.url = "http://" + ln.Addr().String() + "/api/tree"
	r.hs = &http.Server{Handler: r.srv.Handler()}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}
	// Warm-up: solve the working set once, which fills the cache.
	for i := 0; i < webWorkingSet; i++ {
		m := r.structuredSmall()
		req := r.request(kindCompact, m)
		resp, code, err := r.post(req.body)
		if err != nil || code != http.StatusOK || !resp.feasible || !resp.complete {
			r.close()
			return nil, fmt.Errorf("warm-up solve %d: status %d: %v", i, code, err)
		}
		r.working = append(r.working, m)
		r.wantOf = append(r.wantOf, resp.cost)
	}
	return r, nil
}

// structuredSmall draws a compact-request matrix: a perturbed clock on
// 24-32 species with eps 0.3, whose compact groups stay small enough that
// every solve takes a few ms at most, rounded to four decimals so that a
// request body is a few KiB rather than 17 digits per entry.
func (r *webRunner) structuredSmall() *matrix.Matrix {
	p := matrix.PerturbedUltrametric(r.rng, 24+r.rng.Intn(9), 100, 0.3)
	m := matrix.New(p.Len())
	for i := 0; i < p.Len(); i++ {
		for j := i + 1; j < p.Len(); j++ {
			m.Set(i, j, math.Max(1e-4, math.Round(1e4*p.At(i, j))/1e4))
		}
	}
	return m
}

// request renders one request of kind for m.
func (r *webRunner) request(kind int, m *matrix.Matrix) webReq {
	algo := "compact"
	if kind == kindHeavy {
		algo = "bb"
	}
	body, _ := json.Marshal(web.Request{Matrix: m.String(), Algorithm: algo}) // cannot fail: two strings
	return webReq{kind: kind, body: body, upgmm: upgmmCost(m)}
}

// hits draws n hits: relabelled working-set matrices.
func (r *webRunner) hits(n int) []webReq {
	out := make([]webReq, n)
	for i := range out {
		w := r.rng.Intn(len(r.working))
		out[i] = r.request(kindHit, r.working[w].Relabel(r.rng.Perm(r.working[w].Len())))
		out[i].want = r.wantOf[w]
	}
	return out
}

// misses draws n misses: a fresh matrix for every request.
func (r *webRunner) misses(n int) ([]webReq, error) {
	out := make([]webReq, n)
	for i, kind := range missKinds(r.rng, n) {
		if kind == kindCompact {
			out[i] = r.request(kind, r.structuredSmall())
			continue
		}
		m, err := r.heavyMatrix()
		if err != nil {
			return nil, err
		}
		out[i] = r.request(kind, m)
	}
	return out, nil
}

// heavyScales is how many power-of-two scalings of each heavy base are
// sent. Scaling every distance by 2^k changes the cache key but not the
// search, so each heavy request is a cache miss with a pinned amount of
// work.
const heavyScales = 8

// heavyMatrix returns the next heavy request's matrix: the bases in a
// seed-drawn order, each at scale 1, then each at scale 2, and so on.
func (r *webRunner) heavyMatrix() (*matrix.Matrix, error) {
	k := len(heavyWeb)
	if r.heavy == k*heavyScales {
		return nil, errors.New("heavy request pool exhausted; lower -seconds")
	}
	if r.heavyOrder == nil {
		r.heavyOrder = r.rng.Perm(k)
	}
	b := heavyWeb[r.heavyOrder[r.heavy%k]]
	m := scaled(matrix.Random0100(rand.New(rand.NewSource(b.gen)), b.n), float64(int(1)<<(r.heavy/k)))
	r.heavy++
	return m, nil
}

// post sends one request and decodes a 200 answer.
func (r *webRunner) post(body []byte) (answer, int, error) {
	resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return answer{}, resp.StatusCode, err
	}
	var out web.Response
	if err := json.Unmarshal(data, &out); err != nil {
		return answer{}, resp.StatusCode, err
	}
	return answer{out.Cost, out.Feasible, out.Complete, out.ElapsedMS}, resp.StatusCode, nil
}

// webOutcome is one request's timings and answer.
type webOutcome struct {
	lateMS float64 // generator send time minus due time
	dueMS  float64 // completion minus due time
	sendMS float64 // completion minus the client's send time
	ans    answer
	code   int
	err    error
}

// answer is the part of a 200 response the benchmark checks; the rest
// (Newick, ASCII art) is dropped so the run does not hold every body.
type answer struct {
	cost               float64
	feasible, complete bool
	elapsedMS          float64
}

// drive sends reqs over two connections. With rate > 0 it is an open
// loop: request i is due at i/rate after the start and waits for a free
// connection from then on. With rate 0 it is a closed loop.
func (r *webRunner) drive(reqs []webReq, rate float64, tr *tracer, op0 int) ([]webOutcome, time.Duration) {
	out := make([]webOutcome, len(reqs))
	due := make([]time.Time, len(reqs))
	next := make(chan int, len(reqs)) // holds the whole schedule: the generator never blocks
	start := time.Now()
	go func() {
		for i := range reqs {
			if rate > 0 {
				d := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(d))
				due[i] = d
			} else {
				due[i] = start
			}
			out[i].lateMS = float64(time.Since(due[i]).Nanoseconds()) / 1e6
			next <- i
		}
		close(next)
	}()
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				id := tr.begin("web.request", -1, op0+i)
				sent := time.Now()
				o := &out[i]
				o.ans, o.code, o.err = r.post(reqs[i].body)
				done := time.Now()
				tr.end(id)
				o.sendMS = float64(done.Sub(sent).Nanoseconds()) / 1e6
				if rate > 0 {
					o.dueMS = float64(done.Sub(due[i]).Nanoseconds()) / 1e6
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// check counts failures and verifies every 200 answer.
func (r *webRunner) check(m *measurement, reqs []webReq, outs []webOutcome, cost, ref *float64) {
	for i, o := range outs {
		m.attempted++
		if o.err != nil {
			m.fail("web request %d: %v", i, o.err)
			continue
		}
		if o.code != http.StatusOK || !o.ans.complete {
			m.failed++
			continue
		}
		if !o.ans.feasible {
			m.fail("web request %d: infeasible tree", i)
		}
		if reqs[i].kind == kindHit && o.ans.cost != reqs[i].want {
			m.fail("web request %d: hit cost %v, original solve %v", i, o.ans.cost, reqs[i].want)
		}
		*cost += o.ans.cost
		*ref += reqs[i].upgmm
	}
}

// openPhase drives reqs as an open loop at rate, checks the answers and
// returns the outcomes and the server's counters before and after.
func (r *webRunner) openPhase(m *measurement, reqs []webReq, rate float64, tr *tracer, op0 int, cost, ref *float64) ([]webOutcome, web.SolverStats, web.SolverStats) {
	runtime.GC()
	before := r.srv.Stats()
	outs, _ := r.drive(reqs, rate, tr, op0)
	after := r.srv.Stats()
	r.check(m, reqs, outs, cost, ref)
	return outs, before, after
}

// run measures three phases, each of one kind of traffic so that no
// share of hits against misses has to be assumed: an open loop of cache
// hits (latency_ms_p50), an open loop of misses (solve_s: the median
// latency of a unique solve, in seconds), and closed-loop batches of
// misses (capacity_rps). Open-loop latencies at a third of capacity move
// less with the host's load than a saturated closed loop does.
func (r *webRunner) run(d time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	var cost, ref float64
	open := d.Seconds() * webOpenShare
	hitReqs := r.hits(int(webHitRate * open))
	hitOuts, h0, h1 := r.openPhase(m, hitReqs, webHitRate, tr, 0, &cost, &ref)
	missReqs, err := r.misses(int(webMissRate * open))
	if err != nil {
		return nil, err
	}
	missOuts, m0, m1 := r.openPhase(m, missReqs, webMissRate, tr, len(hitOuts), &cost, &ref)
	var late, overhead, server, missMS []float64
	for _, o := range hitOuts {
		late = append(late, o.lateMS)
		m.latMS = append(m.latMS, o.dueMS) // a failed request waited too
		m.sample("hit_ms", o.dueMS)
		if o.code == http.StatusOK {
			overhead = append(overhead, o.sendMS-o.ans.elapsedMS)
		}
	}
	for _, o := range missOuts {
		late = append(late, o.lateMS)
		missMS = append(missMS, o.dueMS)
		m.sample("miss_ms", o.dueMS)
		if o.code == http.StatusOK {
			server = append(server, o.ans.elapsedMS)
		}
	}
	if tr != nil {
		parse, fp := replayMatrix(tr, hitReqs[:min(len(hitReqs), webReplay)])
		m.layer["matrix.parse_us"] = parse
		m.layer["matrix.fingerprint_us"] = fp
	}
	// The closed loop runs webBatches batches of misses, each freshly
	// drawn; capacity comes from the median batch time, which a transient
	// stall of the host does not move. The open loops' request bodies are
	// released and the heap collected before each batch, so the server's
	// GC work does not depend on what the benchmark still holds.
	hitReqs, missReqs = nil, nil
	op := len(hitOuts) + len(missOuts)
	var walls []float64
	for b := 0; b < webBatches; b++ {
		batch, err := r.misses(webBatch)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		bouts, wall := r.drive(batch, 0, tr, op+b*webBatch)
		r.check(m, batch, bouts, &cost, &ref)
		walls = append(walls, wall.Seconds())
		m.sample("batch_s", wall.Seconds())
	}
	m.solveS = median(missMS) / 1000
	m.costRatio = cost / ref
	m.layer["latency_ms_p99"] = quantile(m.latMS, 0.99)
	m.layer["capacity_rps"] = webBatch / median(walls)
	m.layer["web.hit_rate"] = float64(h1.Hits-h0.Hits) / float64(served(h1)-served(h0))
	m.layer["web.miss_ms_p99"] = quantile(missMS, 0.99)
	m.layer["web.coalesced"] = float64(h1.Coalesced - h0.Coalesced + m1.Coalesced - m0.Coalesced)
	m.layer["web.shed"] = float64(h1.Shed - h0.Shed + m1.Shed - m0.Shed)
	m.layer["web.server_ms"] = quantile(server, 0.99)
	m.layer["web.overhead_ms"] = median(overhead)
	m.layer["web.late_ms_p99"] = quantile(late, 0.99)
	return m, nil
}

// served is the number of requests the server has answered from the
// cache, by a new solve or by joining one.
func served(s web.SolverStats) int64 { return s.Hits + s.Misses + s.Coalesced }

// replayMatrix times the matrix layer's request-path calls from outside:
// parsing each open-loop request's matrix text and computing its
// canonical fingerprint. It returns the median µs of each.
func replayMatrix(tr *tracer, reqs []webReq) (parseUS, fingerprintUS float64) {
	var parse, fp []float64
	for i, q := range reqs {
		var req web.Request
		if err := json.Unmarshal(q.body, &req); err != nil {
			continue
		}
		id := tr.begin("matrix.parse", -1, i)
		m, err := matrix.ParseString(req.Matrix)
		parse = append(parse, float64(tr.end(id).Nanoseconds())/1e3)
		if err != nil {
			continue
		}
		id = tr.begin("matrix.fingerprint", -1, i)
		m.CanonicalFingerprint()
		fp = append(fp, float64(tr.end(id).Nanoseconds())/1e3)
	}
	return median(parse), median(fp)
}

// close shuts the HTTP server down, waits for Serve to return and stops
// the solver pool.
func (r *webRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.hs.Shutdown(ctx) // a timeout leaves only connections the client drops next
	<-r.served
	r.client.CloseIdleConnections()
	r.srv.Close()
}
