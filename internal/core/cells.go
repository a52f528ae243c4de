package core

import (
	"context"
	"encoding/json"
	"fmt"
)

// An experiment is not a monolithic function: it is a set of independent
// simulation cells (one engine × cluster-size bisection, one fixed-rate
// run, one replication seed) plus a pure assembly step that folds the cell
// results into the paper-shaped artefact.  Exposing that structure is what
// lets the controller (internal/ctl) schedule cells across agents: a cell
// is the unit of leasing, retry and failover.
//
// Determinism contract: Cells(o) must enumerate the same cells in the same
// order for a given Options on every process, each cell's result must be a
// pure function of (cell, Options), and Assemble must be a pure function
// of the encoded results.  Both the local runner (RunContext) and the
// distributed controller funnel every cell result through the same
// canonical JSON encoding, so an artefact assembled from cells executed on
// N remote agents is byte-identical to a direct single-process run.

// Cell is one schedulable, context-cancellable unit of an experiment.
type Cell struct {
	// ID is unique within the experiment and stable across processes
	// (e.g. "storm/2"); the controller uses it to address and display the
	// cell.
	ID string
	// Key, when non-empty, is a content hash of everything the cell's
	// result depends on (engine, cluster size, query, load, seed, scale,
	// ...).  Two cells with equal keys compute the same result even when
	// they belong to different experiments, which is what lets agents
	// reuse finished cells across overlapping scenario submissions.
	// Empty means "no content identity known"; caches then fall back to
	// addressing by (spec, cell ID).
	Key string
	// Run executes the cell.  The returned value must round-trip through
	// EncodeCellResult/JSON unchanged (exported fields, no NaN/Inf).
	Run func(ctx context.Context, o Options) (any, error)
}

// CellEvent reports one cell completion to a progress hook.
type CellEvent struct {
	Experiment string
	Cell       string
	Index      int
	Total      int
	Err        error
}

// Progress observes cell completions.  Hooks are called from pool workers
// and must be safe for concurrent use.
type Progress func(CellEvent)

// EncodeCellResult marshals a cell result into its canonical wire/artifact
// encoding.  encoding/json is deterministic here: struct fields keep
// declaration order, map keys are sorted, and float64 values use the
// shortest representation that round-trips exactly.
func EncodeCellResult(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("core: encode cell result: %w", err)
	}
	return b, nil
}

// decodeCell decodes one cell's canonical encoding.
func decodeCell[T any](raw []byte) (T, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, fmt.Errorf("core: decode cell result: %w", err)
	}
	return v, nil
}

// Run executes the experiment in-process: every cell on the worker pool,
// then assembly.  Equivalent to RunContext with a background context.
func (e Experiment) Run(o Options) (*Outcome, error) {
	return e.RunContext(context.Background(), o, nil)
}

// RunContext executes the experiment's cells on the GOMAXPROCS-bounded
// worker pool, honouring ctx (cancellation aborts the run; it never yields
// a partial artefact) and reporting each completed cell to progress (which
// may be nil).  Cell results travel through the canonical encoding even
// locally, so the artefact is byte-identical to one assembled by the
// distributed controller.
func (e Experiment) RunContext(ctx context.Context, o Options, progress Progress) (*Outcome, error) {
	o = o.WithDefaults()
	results, err := e.runCells(ctx, o, progress)
	if err != nil {
		return nil, err
	}
	return e.Assemble(o, results)
}

// runCells executes every cell on the worker pool and returns the
// canonical encodings in enumeration order.  o must already be defaulted.
func (e Experiment) runCells(ctx context.Context, o Options, progress Progress) ([][]byte, error) {
	cells := e.Cells(o)
	results := make([][]byte, len(cells))
	tasks := make([]func(context.Context) error, len(cells))
	for i, c := range cells {
		i, c := i, c
		tasks[i] = func(ctx context.Context) error {
			v, err := c.Run(ctx, o)
			if err == nil {
				results[i], err = EncodeCellResult(v)
			}
			if progress != nil {
				progress(CellEvent{Experiment: e.ID, Cell: c.ID, Index: i, Total: len(cells), Err: err})
			}
			if err != nil {
				return fmt.Errorf("core: %s cell %s: %w", e.ID, c.ID, err)
			}
			return nil
		}
	}
	if err := runTasks(ctx, tasks); err != nil {
		return nil, err
	}
	return results, nil
}

// singleCell adapts a monolithic experiment body to the cell model: one
// cell whose result is the full Outcome.  Used by experiments whose parts
// are too entangled (or too cheap) to be worth scheduling separately.
func singleCell(run func(ctx context.Context, o Options) (*Outcome, error)) (func(Options) []Cell, func(Options, [][]byte) (*Outcome, error)) {
	cells := func(Options) []Cell {
		return []Cell{{
			ID: "all",
			Run: func(ctx context.Context, o Options) (any, error) {
				return run(ctx, o)
			},
		}}
	}
	assemble := func(o Options, raws [][]byte) (*Outcome, error) {
		if len(raws) != 1 {
			return nil, fmt.Errorf("core: single-cell experiment got %d results", len(raws))
		}
		out, err := decodeCell[*Outcome](raws[0])
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	return cells, assemble
}
