package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON keeps ../BENCHMARK.json and the metric and
// workload lists the benchmark reports in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	// Every listed workload exists; paper is runnable but left out on
	// purpose (README.md, "Noise").
	listed := make(map[string]bool)
	for _, w := range doc.Workloads {
		listed[w.Name] = true
	}
	for _, w := range workloads {
		if listed[w.name] == (w.name == "paper") {
			t.Errorf("workload %s: listed in BENCHMARK.json = %v", w.name, listed[w.name])
		}
		delete(listed, w.name)
	}
	for name := range listed {
		t.Errorf("BENCHMARK.json lists unknown workload %q", name)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better = %q", got[i].Name, got[i].Better)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
	var setup, widest float64
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		widest = max(widest, *m.Bound)
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	if setup != widest {
		t.Errorf("setup_s bound %v is not the widest (%v)", setup, widest)
	}
}
