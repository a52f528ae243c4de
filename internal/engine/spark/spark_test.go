package spark

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
	h := &harness{k: sim.NewKernel(9)}
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

func (h *harness) feedSteady(packs int64, price int64) {
	h.k.Every(10*time.Millisecond, func(now sim.Time) {
		h.queues.Queue(0).Push(tuple.Event{
			Stream: tuple.Purchases, UserID: 1,
			GemPackID: int64(now/time.Millisecond) % packs,
			Price:     price, EventTime: now, Weight: 1,
		})
	})
}

func TestName(t *testing.T) {
	if New(Options{}).Name() != "spark" {
		t.Fatal("name")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.BatchInterval != 4*time.Second || o.BlockInterval != 200*time.Millisecond {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestDeployValidates(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(Options{}).Deploy(k, engine.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestMicroBatchEmissionLag(t *testing.T) {
	// Spark's signature: a window's results cannot appear before its
	// closing batch has been scheduled and run.  (Note the output
	// event-time is the *max* contributing event time per Definition 3,
	// so at light load the output latency itself can be small — the
	// scheduling floor shows in the emission lag after the window end.)
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{})
	h.feedSteady(10, 5)
	h.job.Start()
	h.k.Run(2 * time.Minute)
	if len(h.outputs) == 0 {
		t.Fatal("no outputs")
	}
	for _, o := range h.outputs {
		lag := o.EmitTime - o.WindowEnd
		if lag < 150*time.Millisecond {
			t.Fatalf("output emitted %v after window end; DAG scheduling floor missing", lag)
		}
	}
}

func TestAggregationSumsAreConsistent(t *testing.T) {
	// With a constant feed (one event per 10ms, price 5), every full
	// window's total across keys is windowSeconds*100 events * 5.
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{})
	h.feedSteady(10, 5)
	h.job.Start()
	h.k.Run(2 * time.Minute)

	perWindow := map[time.Duration]int64{}
	for _, o := range h.outputs {
		perWindow[o.WindowEnd] += o.Value
	}
	// Ignore edge windows (start-up, end-of-run): check interior ones.
	const want = 8 * 100 * 5
	checked := 0
	for end, sum := range perWindow {
		if end < 16*time.Second || end > 90*time.Second {
			continue
		}
		checked++
		// Arrival-time window assignment can shift a tuple of events
		// across a boundary; allow 3%.
		if sum < want*97/100 || sum > want*103/100 {
			t.Fatalf("window %v sum %d, want ~%d", end, sum, want)
		}
	}
	if checked < 5 {
		t.Fatalf("too few interior windows checked: %d", checked)
	}
}

func TestSchedulerDelaySeriesExposed(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{})
	h.feedSteady(10, 5)
	h.job.Start()
	h.k.Run(time.Minute)
	extra := h.job.ExtraSeries()
	sched := extra["scheduler_delay"]
	if sched == nil || sched.Len() == 0 {
		t.Fatal("scheduler delay series missing (needed for Figure 11)")
	}
	for _, p := range sched.Points {
		if p.V <= 0 {
			t.Fatalf("non-positive scheduler delay sample: %+v", p)
		}
	}
}

func TestBatchIntervalControlsEmissionCadence(t *testing.T) {
	// With an 8s batch, outputs arrive in bursts no more often than the
	// batch interval.
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{BatchInterval: 8 * time.Second})
	h.feedSteady(10, 5)
	h.job.Start()
	h.k.Run(time.Minute)
	if len(h.outputs) == 0 {
		t.Fatal("no outputs")
	}
	// All outputs of one window share the same job; their emission times
	// must cluster after the window's batch boundary.
	for _, o := range h.outputs {
		if o.EmitTime <= o.WindowEnd {
			t.Fatalf("output emitted before its batch could have run: %+v", o)
		}
	}
}

func TestLateEventsSlideIntoCurrentWindow(t *testing.T) {
	// DStream semantics: an event whose event-time window already fired
	// still lands in the window of its arrival batch (not dropped).
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{})
	// A steady feed to keep batches moving.
	h.feedSteady(10, 5)
	// One very late straggler: event time 1s, arrives at t=20s with a
	// unique key so we can find it.
	h.k.At(20*time.Second, func() {
		h.queues.Queue(1).Push(tuple.Event{
			Stream: tuple.Purchases, UserID: 1, GemPackID: 777,
			Price: 999, EventTime: time.Second, Weight: 1,
		})
	})
	h.job.Start()
	h.k.Run(time.Minute)
	var found *tuple.Output
	for _, o := range h.outputs {
		if o.Key == 777 {
			found = o
		}
	}
	if found == nil {
		t.Fatal("late event was dropped; Spark should include it in the arrival window")
	}
	if found.WindowEnd < 20*time.Second {
		t.Fatalf("late event should land in a window at/after its arrival: %v", found.WindowEnd)
	}
	// Its event-time latency is accordingly huge — the Figure 7 effect.
	if found.EventTimeLatency() < 15*time.Second {
		t.Fatalf("late event's event-time latency should be large: %v", found.EventTimeLatency())
	}
}

func TestJoinProducesPairs(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Join), Options{})
	h.k.Every(10*time.Millisecond, func(now sim.Time) {
		h.queues.Queue(0).Push(tuple.Event{Stream: tuple.Purchases, UserID: 3, GemPackID: 4,
			Price: 10, EventTime: now, Weight: 1})
		if now%50 == 0 {
		}
	})
	h.k.Every(40*time.Millisecond, func(now sim.Time) {
		h.queues.Queue(1).Push(tuple.Event{Stream: tuple.Ads, UserID: 3, GemPackID: 4,
			EventTime: now, Weight: 1})
	})
	h.job.Start()
	h.k.Run(90 * time.Second)
	if len(h.outputs) == 0 {
		t.Fatal("join produced no pairs")
	}
	for _, o := range h.outputs {
		if o.Key != 4 || o.Value != 10 {
			t.Fatalf("unexpected join output: %+v", o)
		}
	}
}

func TestInverseReduceCheaperThanRecompute(t *testing.T) {
	// Experiment 3's mechanism at the unit level: with a large
	// window/batch ratio the recompute strategy must model a strictly
	// longer job than inverse-reduce for the same batch weight.
	big, err := workload.NewAggregation(60*time.Second, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dur := func(s workload.SlidingStrategy) time.Duration {
		q := big
		q.Strategy = s
		h := deploy(t, 2, q, Options{})
		j := h.job.(*job)
		return j.jobProcTime(1_000_000)
	}
	inv := dur(workload.StrategyInverseReduce)
	rec := dur(workload.StrategyRecompute)
	def := dur(workload.StrategyDefault)
	if !(inv < def && def < rec) {
		t.Fatalf("strategy cost ordering wrong: inverse=%v default=%v recompute=%v", inv, def, rec)
	}
}

func TestStopHaltsProcessing(t *testing.T) {
	h := deploy(t, 2, workload.Default(workload.Aggregation), Options{})
	h.feedSteady(10, 5)
	h.job.Start()
	h.k.Run(30 * time.Second)
	h.job.Stop()
	n := len(h.outputs)
	h.k.Run(time.Minute)
	if len(h.outputs) != n {
		t.Fatal("outputs continued after Stop")
	}
}
