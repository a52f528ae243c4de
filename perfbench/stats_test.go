package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentile(t *testing.T) {
	values := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {0.99, 3.97}, {1, 4},
	}
	for _, c := range cases {
		if got := percentile(values, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", values, c.q, got, c.want)
		}
	}
	if values[0] != 4 || values[1] != 1 {
		t.Errorf("percentile reordered its input: %v", values)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single value: got %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty input: got %v, want NaN", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

// TestPerLayerMatchesBenchmarkJSON keeps the traced run's metric list and
// BENCHMARK.json in step: every per-layer metric the file declares is one
// the traced run reports, with the same unit.
func TestPerLayerMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), traced run has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
