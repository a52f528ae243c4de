package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

func TestRunTasksRunsAllAndPreservesSlots(t *testing.T) {
	const n = 57
	results := make([]int, n)
	tasks := make([]func(context.Context) error, 0, n)
	for i := 0; i < n; i++ {
		i := i
		tasks = append(tasks, func(context.Context) error {
			results[i] = i * i
			return nil
		})
	}
	if err := runTasks(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Fatalf("slot %d holds %d", i, r)
		}
	}
}

func TestRunTasksReturnsFirstErrorByOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	var ran atomic.Int32
	tasks := []func(context.Context) error{
		func(context.Context) error { ran.Add(1); return nil },
		func(context.Context) error { ran.Add(1); return errA },
		func(context.Context) error { ran.Add(1); return errB },
		func(context.Context) error { ran.Add(1); return nil },
	}
	err := runTasks(context.Background(), tasks)
	if !errors.Is(err, errA) {
		t.Fatalf("want first error by task order, got %v", err)
	}
	if ran.Load() != 4 {
		t.Fatalf("all tasks must run to completion: %d of 4", ran.Load())
	}
}

func TestRunTasksEmpty(t *testing.T) {
	if err := runTasks(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunTasksNilContext(t *testing.T) {
	ran := false
	if err := runTasks(nil, []func(context.Context) error{func(context.Context) error { ran = true; return nil }}); err != nil || !ran {
		t.Fatalf("nil ctx must behave as Background: err=%v ran=%v", err, ran)
	}
}

// TestRunTasksCancellation pins that a cancelled context stops workers from
// claiming further tasks and surfaces ctx.Err().
func TestRunTasksCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 64
	var ran atomic.Int32
	tasks := make([]func(context.Context) error, 0, n)
	for i := 0; i < n; i++ {
		tasks = append(tasks, func(context.Context) error {
			// The first task to run cancels everyone; tasks already
			// claimed still finish (a cell is never half-recorded).
			cancel()
			ran.Add(1)
			return nil
		})
	}
	err := runTasks(ctx, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := ran.Load(); got < 1 || got > int32(runtime.GOMAXPROCS(0)) {
		t.Fatalf("cancelled pool should stop claiming tasks: %d ran", got)
	}
}

func TestRunTasksPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	tasks := []func(context.Context) error{func(context.Context) error { ran.Add(1); return nil }}
	if err := runTasks(ctx, tasks); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunTasksNestedRunFillsBudget runs tasks shaped like bisection cells:
// each nests par.Run with the ctx it was given, as Cell.Run does through
// the driver's speculative search.  The nested call must run on the task's
// budget slot, so at GOMAXPROCS=2 two tasks are in flight at once.
func TestRunTasksNestedRunFillsBudget(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	const n = 6
	var cur, peak atomic.Int32
	tasks := make([]func(context.Context) error, n)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) error {
			c := cur.Add(1)
			for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
			}
			par.Run(ctx, 1, func(context.Context, int) { time.Sleep(5 * time.Millisecond) })
			cur.Add(-1)
			return nil
		}
	}
	if err := runTasks(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 2 {
		t.Fatalf("peak tasks in flight = %d, want 2 at GOMAXPROCS=2", p)
	}
}
