package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a root); Op is the instance or request id shared
// by every span of one operation.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: now, EndNS: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return time.Duration(now - t.spans[id].StartNS)
}

// add records a span timed by someone else, such as a phase event whose
// end is its arrival and whose duration the event carries.
func (t *tracer) add(name string, parent, op int, end time.Time, d time.Duration) {
	if t == nil {
		return
	}
	e := end.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: e - d.Nanoseconds(), EndNS: e})
}

// selfTimes returns every closed span's self time in ms: its duration
// minus the part of its interval that its children's union covers.
func (t *tracer) selfTimes() []float64 {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			c := t.spans[k]
			a, b := max(c.StartNS, s.StartNS), min(c.EndNS, s.EndNS)
			if c.EndNS >= 0 && b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := int64(0), s.StartNS
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		self[i] = float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return self
}

// selfMS sums self time per span name.
func (t *tracer) selfMS() map[string]float64 {
	out := map[string]float64{}
	for i, v := range t.selfTimes() {
		out[t.spans[i].Name] += v
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
