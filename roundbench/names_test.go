package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics a result line
// carries; it must list exactly the tables in names.go.
func TestBenchmarkJSONListsTheResultLineMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []nameUnit) {
		var g []nameUnit
		for _, m := range got {
			g = append(g, nameUnit{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("%s in BENCHMARK.json differ from names.go:\n got %v\nwant %v", what, g, want)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	var want []string
	for _, w := range workloads {
		if w.gated {
			want = append(want, w.name)
		}
	}
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("workloads in BENCHMARK.json = %v, want %v", ws, want)
	}
}

// Each workload's probe must produce the probe rows perLayer declares,
// each once and every time positive.
func TestProbeRowsAreDeclared(t *testing.T) {
	var declared []string
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "nn.") || strings.HasPrefix(m.name, "data.") {
			declared = append(declared, m.name)
		}
	}
	for _, w := range workloads {
		rows, iterS, err := probe(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if iterS <= 0 {
			t.Errorf("%s: iteration time %v", w.name, iterS)
		}
		got := map[string]bool{}
		for _, m := range rows {
			if got[m.Name] {
				t.Errorf("%s: probe row %q appears twice", w.name, m.Name)
			}
			got[m.Name] = true
			if m.Unit == "s" && m.Value <= 0 {
				t.Errorf("%s: probe row %q = %v s, want a positive time", w.name, m.Name, m.Value)
			}
		}
		for _, n := range declared {
			if !got[n] {
				t.Errorf("%s: declared row %q is not produced by the probe", w.name, n)
			}
		}
	}
}
