package core

import (
	"context"

	"repro/internal/par"
)

// The experiment layer runs independent simulation cells — one engine ×
// cluster-size grid cell, one bisection search, one replication seed — on
// the process-wide worker budget (internal/par).  Every cell is a
// self-contained simulation: its own kernel, RNG streams, cluster model,
// metrics and (per-run-bound) key distributions, so cells share no mutable
// state and their results are bit-identical to a sequential execution.
// Determinism is preserved by indexing: each task writes only its own slot
// of the caller's result slice, and the caller assembles output in task
// order.
//
// Because the budget is shared, a cell that can use parallelism inside
// itself — the driver's speculative sustainable-throughput search — picks
// up exactly the workers the grid is not using (par.Spare), so intra-cell
// and inter-cell parallelism compose without oversubscribing the host.
// GOMAXPROCS=1 forces fully sequential execution at every layer.

// runTasks executes the tasks concurrently on the shared worker budget and
// returns the first error in task order.  A task error does not stop the
// other tasks (so result slices stay fully populated for the caller to
// inspect), but a cancelled ctx does: workers stop claiming tasks, and the
// error is the first task error if any task failed, else ctx.Err().  Each
// task gets the ctx par.Run hands it, which carries the budget slot of the
// goroutine running it: a task that nests par.Run must pass that ctx on.
func runTasks(ctx context.Context, tasks []func(context.Context) error) error {
	n := len(tasks)
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	par.Run(ctx, n, func(ctx context.Context, i int) { errs[i] = tasks[i](ctx) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
