// Package par is the process-wide worker budget shared by every layer that
// fans independent simulations out over goroutines: the experiment-cell
// executor (internal/core) and the speculative sustainable-throughput
// search inside a single cell (internal/driver).
//
// The budget is one shared invariant across all Run calls — nested or
// concurrent roots: every goroutine running a task holds one of GOMAXPROCS
// slots.  A slot belongs to a goroutine and travels in the ctx Run hands
// to fn, so a Run nested inside a task reuses its caller's slot instead of
// taking a second one; only a root Run — one whose ctx carries no slot,
// such as the experiment grid or a ctl agent worker running a cell — takes
// a slot for its caller.  A Run's calling goroutine always participates
// (so nesting can never deadlock and a saturated pool degrades to
// sequential execution in the caller); extra workers are recruited with a
// non-blocking try-acquire and retire at the next task boundary when the
// process has gone over budget.  Because root callers are always admitted,
// a burst of concurrent roots can transiently exceed the budget by the
// in-flight tasks; the retirement rule converges the working count back to
// max(GOMAXPROCS, live roots) within one task.  That is what lets a
// bisection cell speculate on probe rates exactly when the grid around it
// has gone idle — and never oversubscribe the host when it has not.
//
// Determinism contract: Run executes each index at most once and callers
// must make task results depend only on the index (write slot i of a result
// slice), never on scheduling order.  Under that discipline a parallel
// execution is bit-identical to a sequential one.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// working counts the goroutines currently occupying a budget slot: every
// root Run's calling goroutine (counted at entry, for the call's duration)
// plus every recruited extra worker.  Counting root callers — including
// those of concurrent roots, e.g. several ctl agent workers in one
// process — is what keeps the budget honest when more than one Run is in
// flight at once.  A nested Run's caller is not counted again: it already
// holds the slot its ctx carries, and runs the inner tasks on it.
var working atomic.Int64

// budget returns the total worker budget, read at call time so tests (and
// callers) that adjust GOMAXPROCS see the new width immediately.
func budget() int64 { return int64(runtime.GOMAXPROCS(0)) }

// tryAcquire claims one extra-worker slot if the budget allows.
func tryAcquire() bool {
	for {
		cur := working.Load()
		if cur >= budget() {
			return false
		}
		if working.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func release() { working.Add(-1) }

// Spare reports how many extra workers a root Run started now could expect
// to recruit beyond its own caller (0 on a saturated or single-core
// process).  A caller that already holds a slot — a task of an enclosing
// Run — could recruit one more, as its nested Run takes no slot of its own.
// It is advisory — the answer can change before the workers are recruited —
// and is meant for sizing speculative work to the currently idle capacity.
func Spare() int {
	s := budget() - 1 - working.Load()
	if s < 0 {
		s = 0
	}
	return int(s)
}

// slotKey marks a ctx handed to a task by Run: the goroutine running the
// task holds a budget slot.
type slotKey struct{}

// Run executes fn(ctx, 0..n-1), each index exactly once, unless ctx is
// cancelled first — then workers stop claiming new indexes (indexes already
// claimed still run to completion).  The calling goroutine participates; up
// to n-1 extra workers are recruited from the process budget.  Run returns
// when every claimed index has finished.
//
// fn receives ctx marked as carrying the running goroutine's slot, so a Run
// nested in fn with that ctx reuses the slot.  A task must not hand that
// ctx to a goroutine Run did not start: such a goroutine holds no slot.
func Run(ctx context.Context, n int, fn func(ctx context.Context, i int)) {
	if n <= 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// A root caller takes a slot for the duration of the call, so
	// concurrent Runs (and Spare) see each other.
	if ctx.Value(slotKey{}) == nil {
		working.Add(1)
		defer working.Add(-1)
		ctx = context.WithValue(ctx, slotKey{}, true)
	}
	if n == 1 {
		if ctx.Err() == nil {
			fn(ctx, 0)
		}
		return
	}
	var next atomic.Int64
	claim := func(extra bool) {
		for ctx.Err() == nil {
			// An extra worker retires at the next task boundary when the
			// process has gone over budget (roots that arrived after it
			// was recruited are always admitted — a caller blocked on the
			// budget could deadlock — so extras yield instead).
			if extra && working.Load() > budget() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(ctx, i)
		}
	}
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1 && tryAcquire(); spawned++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			claim(true)
		}()
	}
	claim(false)
	wg.Wait()
}
