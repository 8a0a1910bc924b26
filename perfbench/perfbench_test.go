package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "b", Parent: 0, StartNS: 30, EndNS: 50},  // overlaps a
		{Name: "c", Parent: 0, StartNS: 90, EndNS: 120}, // runs past the root
		{Name: "open", Parent: 0, StartNS: 60, EndNS: -1},
	}}
	self := tr.selfTimes()
	// Children cover [10,50) and [90,100): 50 of the root's 100 ns.
	if got, want := self[0], 50e-6; got != want {
		t.Errorf("root self = %v ms, want %v", got, want)
	}
	if got, want := self[1], 30e-6; got != want {
		t.Errorf("leaf self = %v ms, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(v, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// The catalog the binary reports must be the one BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		catalog []metricDef
		decl    []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(c.catalog) != len(c.decl) {
			t.Fatalf("%s: catalog has %d metrics, BENCHMARK.json %d", c.name, len(c.catalog), len(c.decl))
		}
		for i, d := range c.decl {
			if c.catalog[i].name != d.Name || c.catalog[i].unit != d.Unit {
				t.Errorf("%s[%d]: catalog %v, BENCHMARK.json %s %s", c.name, i, c.catalog[i], d.Name, d.Unit)
			}
		}
	}
}

// A timing's tail is the highest percentile with at least ten samples
// beyond it.
func TestSummaryTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		tail string
	}{{39, ""}, {40, "p75"}, {99, "p75"}, {100, "p90"}, {1000, "p99"}, {10000, "p99.9"}} {
		v := make([]float64, c.n)
		for i := range v {
			v[i] = float64(i)
		}
		if got := summary(v); got.Tail != c.tail || got.Samples != c.n {
			t.Errorf("summary(%d samples) = %s of %d, want %s", c.n, got.Tail, got.Samples, c.tail)
		}
	}
}
