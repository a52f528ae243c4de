package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// cellTrace records spans around every Cell.Run and Assemble of the
// experiments it wraps, plus the time spent encoding cell results and the
// artifact.  The executor runs cells on several goroutines at once.
type cellTrace struct {
	mu       sync.Mutex
	cells    []time.Duration
	encode   time.Duration
	assemble time.Duration
	values   map[string][]byte // encoded result per cell ID

	inflight, maxInflight atomic.Int64
}

func newCellTrace() *cellTrace { return &cellTrace{values: map[string][]byte{}} }

// wrap returns e with every cell's Run and the Assemble func timed.  The
// cells and the assembly still run in the real executor.
func (t *cellTrace) wrap(e core.Experiment) core.Experiment {
	cellsOf, assemble := e.Cells, e.Assemble
	e.Cells = func(o core.Options) []core.Cell {
		cells := cellsOf(o)
		for i := range cells {
			id, run := cells[i].ID, cells[i].Run
			cells[i].Run = func(ctx context.Context, o core.Options) (any, error) {
				n := t.inflight.Add(1)
				for m := t.maxInflight.Load(); n > m && !t.maxInflight.CompareAndSwap(m, n); m = t.maxInflight.Load() {
				}
				start := time.Now()
				v, err := run(ctx, o)
				span := time.Since(start)
				t.inflight.Add(-1)
				var enc time.Duration
				var raw []byte
				if err == nil {
					start = time.Now()
					raw, err = core.EncodeCellResult(v)
					enc = time.Since(start)
				}
				t.mu.Lock()
				t.cells = append(t.cells, span)
				t.encode += enc
				t.values[id] = raw
				t.mu.Unlock()
				return v, err
			}
		}
		return cells
	}
	e.Assemble = func(o core.Options, raws [][]byte) (*core.Outcome, error) {
		start := time.Now()
		out, err := assemble(o, raws)
		t.mu.Lock()
		t.assemble += time.Since(start)
		t.mu.Unlock()
		return out, err
	}
	return e
}

// resolver wraps core.Lookup so agents and coordinators run traced cells.
func (t *cellTrace) resolver() func(string) (core.Experiment, error) {
	return func(id string) (core.Experiment, error) {
		e, err := core.Lookup(id)
		if err != nil {
			return e, err
		}
		return t.wrap(e), nil
	}
}

// layerMetrics returns the core.* and par.* figures of one traced sample
// that took wall at GOMAXPROCS=procs.  par.speedup is added by the caller,
// which owns the GOMAXPROCS=1 sample.
func (t *cellTrace) layerMetrics(wall time.Duration, procs int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := seconds(t.cells)
	return map[string]float64{
		"core.cell_s.p50":  median(spans),
		"core.cell_s.max":  maxOf(spans),
		"core.encode_ms":   float64(t.encode) / float64(time.Millisecond),
		"core.assemble_ms": float64(t.assemble) / float64(time.Millisecond),
		"par.busy_frac":    sum(spans) / (wall.Seconds() * float64(procs)),
		"par.max_inflight": float64(t.maxInflight.Load()),
	}
}

// runner is one workload's closed loop: each sample is one request with
// nothing else in flight.
type runner interface {
	// setup makes the system ready from nothing, as a sample does before
	// its first cell, and returns how long that took.
	setup() (time.Duration, error)
	// sample runs one request and verifies its artifact bytes.  tr, when
	// non-nil, collects the per-layer trace.  On an artifact mismatch the
	// error wraps errMismatch and the cost is still the measured one.
	sample(tr *trace) (cost, error)
}

// errMismatch marks an artifact whose bytes differ from the reference.
var errMismatch = errors.New("artifact bytes differ from the reference")

// directRunner runs a builtin scenario experiment in-process through the
// core executor.
type directRunner struct {
	o   core.Options
	exp core.Experiment
	// ref is the reference artifact; nil only for the traced suite's
	// first sample, which sets it.
	ref []byte
}

// setupDirect makes a direct experiment ready: compile its builtin spec,
// look it up in the registry and enumerate its cells.
func setupDirect(id string, o core.Options) (core.Experiment, error) {
	for _, s := range scenario.Builtin() {
		if s.Name != id {
			continue
		}
		if _, err := scenario.Compile(s); err != nil {
			return core.Experiment{}, err
		}
		e, err := core.Lookup(id)
		if err != nil {
			return e, err
		}
		if len(e.Cells(o)) == 0 {
			return e, fmt.Errorf("%s enumerates no cells", id)
		}
		return e, nil
	}
	return core.Experiment{}, fmt.Errorf("%s is not a builtin scenario", id)
}

// directSetupReps is how many set-ups one directRunner.setup times
// together: one takes microseconds, too little to time on its own.
const directSetupReps = 100

func (r *directRunner) setup() (time.Duration, error) {
	start := time.Now()
	for i := 0; i < directSetupReps; i++ {
		if _, err := setupDirect(r.exp.ID, r.o); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / directSetupReps, nil
}

func (r *directRunner) sample(tr *trace) (cost, error) {
	runtime.GC()
	exp := r.exp
	if tr != nil {
		exp = tr.cells.wrap(exp)
	}
	m := startMeter()
	out, err := exp.RunContext(context.Background(), r.o, nil)
	if err != nil {
		return cost{}, err
	}
	start := time.Now()
	data, err := core.NewArtifact(exp, r.o, out).Encode()
	if tr != nil {
		tr.cells.mu.Lock()
		tr.cells.encode += time.Since(start)
		tr.cells.mu.Unlock()
		tr.artifact = data
	}
	if err != nil {
		return cost{}, err
	}
	c := m.stop()
	if r.ref != nil && !bytes.Equal(data, r.ref) {
		return c, fmt.Errorf("%s: %w", r.exp.ID, errMismatch)
	}
	return c, nil
}

// directArtifact runs exp in-process and returns its artifact bytes.
func directArtifact(exp core.Experiment, o core.Options) ([]byte, error) {
	out, err := exp.RunContext(context.Background(), o, nil)
	if err != nil {
		return nil, err
	}
	return core.NewArtifact(exp, o, out).Encode()
}

// withProcs runs fn at GOMAXPROCS=n and restores the previous setting.
func withProcs(n int, fn func() error) error {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}
