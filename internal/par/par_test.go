package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesEveryIndexOnce(t *testing.T) {
	const n = 100
	counts := make([]atomic.Int64, n)
	Run(context.Background(), n, func(_ context.Context, i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestRunNilContextAndZeroTasks(t *testing.T) {
	ran := false
	Run(nil, 1, func(context.Context, int) { ran = true })
	if !ran {
		t.Fatal("nil ctx must behave as background")
	}
	Run(context.Background(), 0, func(context.Context, int) { t.Fatal("no tasks to run") })
}

func TestRunStopsClaimingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	Run(ctx, 50, func(context.Context, int) {
		if ran.Add(1) == 2 {
			cancel()
		}
	})
	if got := ran.Load(); got >= 50 {
		t.Fatalf("cancellation did not stop claiming: %d tasks ran", got)
	}
}

// TestBudgetBoundsNestedRuns pins the global invariant: across nested Run
// calls the number of concurrently working goroutines never exceeds
// GOMAXPROCS, and the caller always participates, so nesting cannot
// deadlock even on a saturated budget.
func TestBudgetBoundsNestedRuns(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	var cur, peak atomic.Int64
	work := func() {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
	}
	var total atomic.Int64
	Run(context.Background(), 6, func(ctx context.Context, i int) {
		Run(ctx, 5, func(context.Context, int) {
			work()
			total.Add(1)
		})
	})
	if got := total.Load(); got != 30 {
		t.Fatalf("nested tasks ran %d times, want 30", got)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("peak concurrency %d exceeds GOMAXPROCS budget 4", p)
	}
	if working.Load() != 0 {
		t.Fatalf("worker accounting leaked: %d", working.Load())
	}
}

// TestNestedRunReusesCallerSlot pins that a Run nested in a task with the
// ctx the task was given runs on the task's slot instead of taking a
// second one.  Were the nested caller counted again, one outer task in its
// nested Run would read 3 working on a budget of 2, and the outer Run's
// extra worker would retire at its next task boundary: the outer tasks
// would run one at a time.
func TestNestedRunReusesCallerSlot(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	var cur, peak atomic.Int64
	Run(context.Background(), 6, func(ctx context.Context, i int) {
		c := cur.Add(1)
		for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
		}
		Run(ctx, 1, func(context.Context, int) { time.Sleep(5 * time.Millisecond) })
		cur.Add(-1)
	})
	switch p := peak.Load(); {
	case p > 2:
		t.Fatalf("peak outer tasks in flight = %d exceeds the budget of 2", p)
	case p < 2:
		t.Fatalf("peak outer tasks in flight = %d, want 2: a budget slot sat idle", p)
	}
	if working.Load() != 0 {
		t.Fatalf("worker accounting leaked: %d", working.Load())
	}
}

// TestConcurrentRootsConvergeToBudget pins the multi-root rule: several
// goroutines calling Run concurrently — e.g. a process hosting several ctl
// agent workers — share one budget.  Callers are always admitted (a burst
// of roots may transiently exceed the budget by the in-flight tasks), but
// recruited extras retire at the next task boundary once the process is
// over budget, so the working count converges to max(GOMAXPROCS, roots)
// and Spare() reports no idle capacity to speculative callers.
func TestConcurrentRootsConvergeToBudget(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	// Root A fills the budget: caller + 3 extras block inside tasks.
	blockA := make(chan struct{})
	var wgA sync.WaitGroup
	wgA.Add(1)
	go func() {
		defer wgA.Done()
		Run(context.Background(), 8, func(context.Context, int) {
			<-blockA
			time.Sleep(2 * time.Millisecond)
		})
	}()
	waitFor(t, "root A to fill the budget", func() bool { return working.Load() == 4 })

	// Three more roots arrive; their callers are admitted immediately.
	blockB := make(chan struct{})
	var wgB sync.WaitGroup
	for r := 0; r < 3; r++ {
		wgB.Add(1)
		go func() {
			defer wgB.Done()
			Run(context.Background(), 1, func(context.Context, int) { <-blockB })
		}()
	}
	waitFor(t, "late roots to be admitted", func() bool { return working.Load() == 7 })
	if got := Spare(); got != 0 {
		t.Fatalf("over-budget Spare = %d, want 0", got)
	}

	// Release A's in-flight tasks: its extras must retire (working >
	// budget) instead of claiming A's remaining tasks, converging the
	// count back to the 4 live roots while A's caller finishes alone.
	close(blockA)
	waitFor(t, "extras to retire over budget", func() bool { return working.Load() <= 4 })

	close(blockB)
	wgA.Wait()
	wgB.Wait()
	if working.Load() != 0 {
		t.Fatalf("worker accounting leaked: %d", working.Load())
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (working=%d)", what, working.Load())
}

func TestSpareReflectsBusyWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	if got := Spare(); got != 3 {
		t.Fatalf("idle spare = %d, want 3", got)
	}
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(context.Background(), 4, func(context.Context, int) { <-block })
	}()
	// Wait for the run to occupy the budget.
	for i := 0; i < 1000 && Spare() != 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := Spare(); got != 0 {
		t.Fatalf("saturated spare = %d, want 0", got)
	}
	close(block)
	<-done
	if got := Spare(); got != 3 {
		t.Fatalf("spare after drain = %d, want 3", got)
	}
}
