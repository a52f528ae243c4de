package flink

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// harness wires a Flink job to hand-fed queues for white-box tests.
type harness struct {
	k       *sim.Kernel
	queues  *queue.Group
	outputs []*tuple.Output
	job     engine.Job
}

func deploy(t *testing.T, workers int, q workload.Query) *harness {
	t.Helper()
	h := &harness{k: sim.NewKernel(7)}
	cl, err := cluster.New(cluster.DefaultConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	h.queues = queue.NewGroup("q", 2, 0)
	job, err := New(Options{}).Deploy(h.k, engine.Config{
		Cluster:     cl,
		Query:       q,
		Sources:     h.queues,
		Sink:        func(o *tuple.Output) { c := *o; h.outputs = append(h.outputs, &c) },
		EventWeight: 1,
		Mem:         engine.NewMem(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.job = job
	return h
}

// feed schedules the event to enter its queue at its event time, as a
// live generator would.
func (h *harness) feed(q *queue.Queue, e tuple.Event) {
	h.k.At(e.EventTime, func() { q.Push(e) })
}

func purchase(user, pack, price int64, at time.Duration) tuple.Event {
	return tuple.Event{Stream: tuple.Purchases, UserID: user, GemPackID: pack,
		Price: price, EventTime: at, Weight: 1}
}

func ad(user, pack int64, at time.Duration) tuple.Event {
	return tuple.Event{Stream: tuple.Ads, UserID: user, GemPackID: pack,
		EventTime: at, Weight: 1}
}

func TestDeployValidates(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(Options{}).Deploy(k, engine.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestName(t *testing.T) {
	if New(Options{}).Name() != "flink" {
		t.Fatal("name")
	}
}

func TestAggregationCorrectSums(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Aggregation))
	// Three purchases for key 5 in window (0,8]; one for key 9; events
	// enter their queues at their event times, as the generator would
	// deliver them.
	h.feed(h.queues.Queue(0), purchase(1, 5, 10, 2*time.Second))
	h.feed(h.queues.Queue(0), purchase(2, 5, 20, 5*time.Second))
	h.feed(h.queues.Queue(1), purchase(3, 5, 30, 7*time.Second))
	h.feed(h.queues.Queue(1), purchase(4, 9, 7, 6*time.Second))
	// A watermark driver: one event past the window end.
	h.feed(h.queues.Queue(0), purchase(5, 5, 1, 9*time.Second))

	h.job.Start()
	h.k.Run(30 * time.Second)

	// Find the (key=5, window end=8s) output.
	var found *tuple.Output
	for _, o := range h.outputs {
		if o.Key == 5 && o.WindowEnd == 8*time.Second {
			found = o
		}
	}
	if found == nil {
		t.Fatalf("no output for key 5 window 8s; outputs: %d", len(h.outputs))
	}
	if found.Value != 60 || found.Count != 3 {
		t.Fatalf("SUM wrong: %+v", found)
	}
	// Definition 3: event time = max contributing event time (7s).
	if found.EventTime != 7*time.Second {
		t.Fatalf("output event-time: %v", found.EventTime)
	}
	if found.EmitTime <= found.EventTime {
		t.Fatal("emission must be after the event time")
	}
}

func TestAggregationLowLatency(t *testing.T) {
	// Flink's signature: with a drained queue, outputs appear within a
	// few ticks of the watermark passing the window end.
	h := deploy(t, 2, workload.Default(workload.Aggregation))
	tick := 10 * time.Millisecond
	end := 30 * time.Second
	h.k.Every(tick, func(now sim.Time) {
		// Feed a steady trickle, event times at generation time.
		h.queues.Queue(0).Push(purchase(1, 5, 1, now))
	})
	h.job.Start()
	h.k.Run(end)
	if len(h.outputs) == 0 {
		t.Fatal("no outputs")
	}
	// The last event in each window is pushed at its event time and
	// pulled within a tick or two; allowing for GC pauses, median
	// emission lag should be well under a second.
	lowLag := 0
	for _, o := range h.outputs {
		if o.EventTimeLatency() < 500*time.Millisecond {
			lowLag++
		}
	}
	if lowLag*2 < len(h.outputs) {
		t.Fatalf("median event-time latency too high: %d of %d under 500ms", lowLag, len(h.outputs))
	}
}

func TestJoinMatchesWithinWindow(t *testing.T) {
	q := workload.Default(workload.Join)
	h := deploy(t, 2, q)
	h.feed(h.queues.Queue(0), purchase(1, 2, 10, 2*time.Second))
	h.feed(h.queues.Queue(1), ad(1, 2, 3*time.Second))
	h.feed(h.queues.Queue(0), purchase(9, 9, 5, 3*time.Second)) // unmatched
	h.feed(h.queues.Queue(0), purchase(5, 5, 1, 9*time.Second)) // watermark driver

	h.job.Start()
	h.k.Run(60 * time.Second)

	matched := 0
	for _, o := range h.outputs {
		if o.Key == 2 && o.Value == 10 {
			matched++
		}
		if o.Key == 9 {
			t.Fatal("unmatched purchase must not join")
		}
	}
	// The pair is in windows ending at 4s and 8s: two join outputs.
	if matched != 2 {
		t.Fatalf("expected 2 join outputs (two overlapping windows), got %d", matched)
	}
}

func TestJoinSkewStalls(t *testing.T) {
	// Experiment 4: single-key join input makes Flink unresponsive.
	q := workload.Default(workload.Join)
	h := deploy(t, 4, q)
	h.k.Every(10*time.Millisecond, func(now sim.Time) {
		h.queues.Queue(0).Push(purchase(1, 1, 1, now))
		h.queues.Queue(1).Push(ad(1, 1, now))
	})
	h.job.Start()
	h.k.Run(2 * time.Minute)
	failed, reason := h.job.Failed()
	if !failed {
		t.Fatal("skewed join should stall the job")
	}
	if reason == "" {
		t.Fatal("stall must carry a reason")
	}
}

func TestAggregationSkewDoesNotStall(t *testing.T) {
	// The skewed aggregation merely pins throughput; it must not fail.
	h := deploy(t, 4, workload.Default(workload.Aggregation))
	h.k.Every(10*time.Millisecond, func(now sim.Time) {
		h.queues.Queue(0).Push(purchase(1, 1, 1, now))
	})
	h.job.Start()
	h.k.Run(2 * time.Minute)
	if failed, reason := h.job.Failed(); failed {
		t.Fatalf("skewed aggregation must not fail: %s", reason)
	}
	if len(h.outputs) == 0 {
		t.Fatal("no outputs under skew")
	}
}

func TestStopHaltsProcessing(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Aggregation))
	h.k.Every(10*time.Millisecond, func(now sim.Time) {
		h.queues.Queue(0).Push(purchase(1, 5, 1, now))
	})
	h.job.Start()
	h.k.Run(20 * time.Second)
	h.job.Stop()
	n := len(h.outputs)
	h.k.Run(40 * time.Second)
	if len(h.outputs) != n {
		t.Fatal("outputs continued after Stop")
	}
}

func TestExtraSeriesEmpty(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Aggregation))
	if h.job.ExtraSeries() != nil {
		t.Fatal("flink exposes no extra series")
	}
}

func TestExactlyOnceCheckpointsPauseIngestion(t *testing.T) {
	// With exactly-once on, ingestion must pause periodically for
	// checkpoint alignment: the per-second pull series shows dips that
	// the at-least-once run does not have at the same instants.
	run := func(exactly bool) int64 {
		h := &harness{k: sim.NewKernel(21)}
		cl, _ := cluster.New(cluster.DefaultConfig(2))
		h.queues = queue.NewGroup("q", 2, 0)
		job, err := New(Options{ExactlyOnce: exactly, CheckpointInterval: 5 * time.Second}).Deploy(h.k, engine.Config{
			Cluster: cl, Query: workload.Default(workload.Aggregation),
			Sources: h.queues, Sink: func(o *tuple.Output) {}, EventWeight: 2000,
			Mem: engine.NewMem(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Saturate the sources (2M ev/s offered, above any capacity) so
		// every paused tick is ingestion lost, not just deferred.
		h.k.Every(10*time.Millisecond, func(now sim.Time) {
			for i := 0; i < 10; i++ {
				e := purchase(int64(i), 5, 1, now)
				e.Weight = 2000
				h.queues.Queue(i % 2).Push(e)
			}
		})
		job.Start()
		h.k.Run(time.Minute)
		return h.queues.TotalOut()
	}
	withCkpt := run(true)
	without := run(false)
	if withCkpt >= without {
		t.Fatalf("checkpointing should cost some ingestion: %d vs %d", withCkpt, without)
	}
	// But not much: a few percent, not a collapse.
	if float64(withCkpt) < 0.85*float64(without) {
		t.Fatalf("checkpointing cost implausibly high: %d vs %d", withCkpt, without)
	}
}

func TestWatermarkSlackDelaysFiring(t *testing.T) {
	mk := func(slack time.Duration) time.Duration {
		h := &harness{k: sim.NewKernel(23)}
		cl, _ := cluster.New(cluster.DefaultConfig(2))
		h.queues = queue.NewGroup("q", 2, 0)
		job, err := New(Options{}).Deploy(h.k, engine.Config{
			Cluster: cl, Query: workload.Default(workload.Aggregation),
			Sources:     h.queues,
			Sink:        func(o *tuple.Output) { c := *o; h.outputs = append(h.outputs, &c) },
			EventWeight: 1, WatermarkSlack: slack,
			Mem: engine.NewMem(),
		})
		if err != nil {
			t.Fatal(err)
		}
		h.k.Every(10*time.Millisecond, func(now sim.Time) {
			h.queues.Queue(0).Push(purchase(1, 5, 1, now))
		})
		job.Start()
		h.k.Run(time.Minute)
		if len(h.outputs) == 0 {
			t.Fatal("no outputs")
		}
		var sum time.Duration
		for _, o := range h.outputs {
			sum += o.EmitTime - o.WindowEnd
		}
		return sum / time.Duration(len(h.outputs))
	}
	lagNone := mk(0)
	lagTwo := mk(2 * time.Second)
	if lagTwo < lagNone+1500*time.Millisecond {
		t.Fatalf("2s slack should delay firing by ~2s: %v vs %v", lagNone, lagTwo)
	}
}
