package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/report"
)

func TestScaleStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
	}{{"quick", Quick}, {"full", Full}, {"", Quick}} {
		got, err := ParseScale(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseScale(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseScale("medium"); err == nil {
		t.Fatal("bad scale accepted")
	}
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale spelling wrong")
	}
}

func TestArtifactEncodeIsDeterministicAndRoundTrips(t *testing.T) {
	s := metrics.NewSeries("lat")
	s.Add(1e9, 0.25)
	s.Add(2e9, 0.5)
	out := &Outcome{
		Text:    "table\n",
		CSV:     "t,v\n",
		Panels:  []report.FigurePanel{{Title: "p", Series: s, Unit: "s"}},
		Metrics: map[string]float64{"b": 2.5, "a": 0.1103001, "c/8": 1.2e6},
	}
	e := Experiment{ID: "x", Title: "X"}
	a := NewArtifact(e, Options{Seed: 7, Scale: Full}, out)
	enc1, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := NewArtifact(e, Options{Seed: 7, Scale: Full}, out).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("artifact encoding not deterministic")
	}
	back, err := DecodeArtifact(enc1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "x" || back.Seed != 7 || back.Scale != "full" {
		t.Fatalf("provenance lost: %+v", back)
	}
	if back.Metrics["a"] != 0.1103001 || back.Metrics["c/8"] != 1.2e6 {
		t.Fatalf("float round-trip broke: %+v", back.Metrics)
	}
	if len(back.Panels) != 1 || back.Panels[0].Series.Points[1].V != 0.5 {
		t.Fatalf("panel round-trip broke: %+v", back.Panels)
	}
}

// cheapExperiment is a synthetic experiment for exercising the runner
// without simulation cost.
func cheapExperiment(n int, cellErr error) Experiment {
	type res struct{ V int }
	return Experiment{
		ID:    "cheap",
		Title: "cheap",
		Cells: func(o Options) []Cell {
			cells := make([]Cell, n)
			for i := 0; i < n; i++ {
				i := i
				cells[i] = Cell{
					ID: fmt.Sprintf("c%d", i),
					Run: func(ctx context.Context, o Options) (any, error) {
						if cellErr != nil && i == n/2 {
							return nil, cellErr
						}
						return res{V: i * int(o.Seed)}, nil
					},
				}
			}
			return cells
		},
		Assemble: func(o Options, raws [][]byte) (*Outcome, error) {
			sum := 0.0
			for _, raw := range raws {
				r, err := decodeCell[res](raw)
				if err != nil {
					return nil, err
				}
				sum += float64(r.V)
			}
			return &Outcome{Text: "ok\n", Metrics: map[string]float64{"sum": sum}}, nil
		},
	}
}

func TestRunContextReportsProgress(t *testing.T) {
	exp := cheapExperiment(6, nil)
	var mu sync.Mutex
	var events []CellEvent
	out, err := exp.RunContext(context.Background(), Options{Seed: 3}, func(ev CellEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(0+1+2+3+4+5) * 3; out.Metrics["sum"] != want {
		t.Fatalf("sum = %v, want %v", out.Metrics["sum"], want)
	}
	if len(events) != 6 {
		t.Fatalf("progress hook saw %d events, want 6", len(events))
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Experiment != "cheap" || ev.Total != 6 || ev.Err != nil {
			t.Fatalf("bad event: %+v", ev)
		}
		seen[ev.Index] = true
	}
	if len(seen) != 6 {
		t.Fatalf("duplicate/missing cell indices: %v", seen)
	}
}

func TestRunContextSurfacesCellErrors(t *testing.T) {
	boom := errors.New("boom")
	exp := cheapExperiment(5, boom)
	_, err := exp.RunContext(context.Background(), Options{}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("cell error lost: %v", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exp := cheapExperiment(4, nil)
	if _, err := exp.RunContext(ctx, Options{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCellEncodingIsCanonical pins the properties assembly relies on: map
// key ordering and exact float round-trips.
func TestCellEncodingIsCanonical(t *testing.T) {
	v := map[string]float64{"z": 1.0 / 3.0, "a": 0.40000000000000002, "m": 1.2e6}
	enc1, err := EncodeCellResult(v)
	if err != nil {
		t.Fatal(err)
	}
	enc2, _ := EncodeCellResult(map[string]float64{"m": 1.2e6, "a": 0.40000000000000002, "z": 1.0 / 3.0})
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("map encoding not canonical: %s vs %s", enc1, enc2)
	}
	back, err := decodeCell[map[string]float64](enc1)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range v {
		if back[k] != want {
			t.Fatalf("float %s drifted: %v != %v", k, back[k], want)
		}
	}
}
