package storm

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

type harness struct {
	k       *sim.Kernel
	queues  *queue.Group
	outputs []*tuple.Output
	job     engine.Job
}

func deploy(t *testing.T, workers int, q workload.Query, opts Options) *harness {
	t.Helper()
	h := &harness{k: sim.NewKernel(11)}
	cl, err := cluster.New(cluster.DefaultConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	h.queues = queue.NewGroup("q", 2, 0)
	job, err := New(opts).Deploy(h.k, engine.Config{
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

// feed pushes weighted events at a steady simulated rate (events/second).
func (h *harness) feed(rate float64, weight int64, key int64) {
	per := int(rate * 0.01 / float64(weight))
	if per < 1 {
		per = 1
	}
	h.k.Every(10*time.Millisecond, func(now sim.Time) {
		for i := 0; i < per; i++ {
			k := key
			if k < 0 {
				k = int64(i % 10)
			}
			h.queues.Queue(i % 2).Push(tuple.Event{
				Stream: tuple.Purchases, UserID: int64(i), GemPackID: k,
				Price: 2, EventTime: now, Weight: weight,
			})
		}
	})
}

func TestName(t *testing.T) {
	if New(Options{}).Name() != "storm" {
		t.Fatal("name")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.WorkerHeapBytes != 768<<20 {
		t.Fatalf("default worker heap should be 768MB: %d", o.WorkerHeapBytes)
	}
}

func TestAggregationProducesCorrectKeys(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{})
	h.feed(100_000, 100, -1)
	h.job.Start()
	h.k.Run(time.Minute)
	if len(h.outputs) == 0 {
		t.Fatal("no outputs")
	}
	keys := map[int64]bool{}
	for _, o := range h.outputs {
		keys[o.Key] = true
		if o.Value <= 0 {
			t.Fatalf("non-positive SUM: %+v", o)
		}
		if o.EmitTime < o.EventTime {
			t.Fatalf("emitted before event time: %+v", o)
		}
	}
	if len(keys) != 10 {
		t.Fatalf("expected 10 distinct keys, got %d", len(keys))
	}
}

func TestBackpressureThrottleOscillates(t *testing.T) {
	// The bang-bang spout throttle must produce intervals with zero pull
	// interleaved with bursts (Figure 9a's fluctuating pull rate).
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{})
	// Offer exactly the sustainable rate so the throttle engages.
	h.feed(400_000, 500, -1)
	h.job.Start()

	var pulls []int64
	last := int64(0)
	h.k.Every(500*time.Millisecond, func(now sim.Time) {
		out := h.queues.TotalOut()
		pulls = append(pulls, out-last)
		last = out
	})
	h.k.Run(time.Minute)

	zero, burst := 0, 0
	for _, p := range pulls {
		if p == 0 {
			zero++
		}
		if float64(p) > 400_000*0.5*1.2 { // >120% of offered in a half-second bucket
			burst++
		}
	}
	if zero < 3 || burst < 3 {
		t.Fatalf("no bang-bang oscillation: %d zero intervals, %d bursts of %d", zero, burst, len(pulls))
	}
}

func TestLargeWindowOOMWithoutSpill(t *testing.T) {
	// Experiment 3: buffered window state at 0.4M ev/s over a 60s window
	// exceeds the 768MB worker heap.
	big, err := workload.NewAggregation(time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h := deploy(t, 2, big, Options{})
	h.feed(400_000, 500, -1)
	h.job.Start()
	h.k.Run(2 * time.Minute)
	failed, reason := h.job.Failed()
	if !failed {
		t.Fatal("large window without spillable state must OOM")
	}
	if reason == "" {
		t.Fatal("OOM must carry a reason")
	}
}

func TestLargeWindowSurvivesWithSpill(t *testing.T) {
	big, err := workload.NewAggregation(time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h := deploy(t, 2, big, Options{SpillableState: true})
	h.feed(400_000, 500, -1)
	h.job.Start()
	h.k.Run(3 * time.Minute)
	if failed, reason := h.job.Failed(); failed {
		t.Fatalf("spillable state should survive the large window: %s", reason)
	}
	if len(h.outputs) == 0 {
		t.Fatal("no outputs from the large window")
	}
}

func TestSmallWindowDoesNotOOM(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{})
	h.feed(400_000, 500, -1)
	h.job.Start()
	h.k.Run(2 * time.Minute)
	if failed, reason := h.job.Failed(); failed {
		t.Fatalf("(8s,4s) window must fit the heap: %s", reason)
	}
}

func TestDisabledBackpressureDropsConnections(t *testing.T) {
	// "Storm drops some connections to the data queue when tested with
	// high workloads with backpressure disabled."
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{DisableBackpressure: true})
	h.feed(1_200_000, 500, -1) // 3x sustainable
	h.job.Start()
	h.k.Run(3 * time.Minute)
	failed, reason := h.job.Failed()
	if !failed {
		t.Fatal("overload without backpressure must drop connections")
	}
	if reason == "" {
		t.Fatal("drop must carry a reason")
	}
}

func TestDisabledBackpressureSurvivesLightLoad(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{DisableBackpressure: true})
	h.feed(100_000, 100, -1)
	h.job.Start()
	h.k.Run(time.Minute)
	if failed, reason := h.job.Failed(); failed {
		t.Fatalf("light load must survive without backpressure: %s", reason)
	}
}

func TestNaiveJoinStallsOnLargerClusters(t *testing.T) {
	h := deploy(t, 4, workload.Default(workload.Join), Options{})
	h.feed(100_000, 100, -1)
	h.job.Start()
	h.k.Run(2 * time.Minute)
	if failed, _ := h.job.Failed(); !failed {
		t.Fatal("naive join on >=4 workers must stall (Experiment 2)")
	}
}

func TestNaiveJoinWorksOnTwoNodes(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Join), Options{})
	h.k.Every(10*time.Millisecond, func(now sim.Time) {
		h.queues.Queue(0).Push(tuple.Event{Stream: tuple.Purchases, UserID: 1, GemPackID: 2,
			Price: 10, EventTime: now, Weight: 100})
		h.queues.Queue(1).Push(tuple.Event{Stream: tuple.Ads, UserID: 1, GemPackID: 2,
			EventTime: now, Weight: 100})
	})
	h.job.Start()
	h.k.Run(time.Minute)
	if failed, reason := h.job.Failed(); failed {
		t.Fatalf("2-node naive join should run: %s", reason)
	}
	if len(h.outputs) == 0 {
		t.Fatal("naive join produced nothing")
	}
}

func TestSkewPinsToSlotCapacity(t *testing.T) {
	// Single-key input: ingestion cannot exceed ~slot capacity (0.2M)
	// even on 8 workers offered 0.6M ev/s.
	h := deploy(t, 8, workload.Default(workload.Aggregation), Options{})
	h.feed(600_000, 500, 1)
	h.job.Start()
	h.k.Run(time.Minute)
	rate := float64(h.queues.TotalOut()) / 60
	if rate > 0.30e6 {
		t.Fatalf("skewed ingestion should pin near slot capacity 0.2M, got %.3g", rate)
	}
}

func TestStopHalts(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{})
	h.feed(100_000, 100, -1)
	h.job.Start()
	h.k.Run(30 * time.Second)
	h.job.Stop()
	n := len(h.outputs)
	h.k.Run(time.Minute)
	if len(h.outputs) != n {
		t.Fatal("outputs continued after Stop")
	}
	if h.job.ExtraSeries() != nil {
		t.Fatal("storm exposes no extra series")
	}
}
