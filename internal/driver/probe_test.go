package driver

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/engine"
	"repro/internal/engine/flink"
	"repro/internal/engine/ideal"
	"repro/internal/engine/spark"
	"repro/internal/engine/storm"
	"repro/internal/fault"
	"repro/internal/generator"
	"repro/internal/workload"
)

func probeTestConfig(rate float64) Config {
	return Config{
		Seed:           42,
		Workers:        4,
		Query:          workload.Default(workload.Aggregation),
		EventsPerTuple: 400,
		Rate:           generator.ConstantRate(rate),
		RunFor:         40 * time.Second,
	}
}

// probeEngines is every engine model: each draws different state from the
// arena (Storm its scratch queue and buffered windows, Spark its pane pool
// and scratch series, Flink and the ideal engine incremental aggregation).
func probeEngines() []engine.Engine {
	return []engine.Engine{storm.New(storm.Options{}), spark.New(spark.Options{}), flink.New(flink.Options{}), ideal.New()}
}

// probeStep is one run of a probe-reuse sequence.
type probeStep struct {
	name string
	cfg  Config
}

// checkProbeSequence runs, for every engine, every step in order on one
// Probe — each run after the first on an arena dirtied by the previous,
// differently shaped one — and requires each Result to deep-equal the
// same config run on a new Probe.
func checkProbeSequence(t *testing.T, steps []probeStep) {
	t.Helper()
	for _, eng := range probeEngines() {
		t.Run(eng.Name(), func(t *testing.T) { checkProbeSequenceOn(t, eng, steps) })
	}
}

func checkProbeSequenceOn(t *testing.T, eng engine.Engine, steps []probeStep) {
	t.Helper()
	p := NewProbe()
	for _, st := range steps {
		want, err := NewProbe().Run(context.Background(), eng, st.cfg)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if want.Outputs == 0 {
			t.Fatalf("%s: the run emitted nothing, so the comparison pins nothing", st.name)
		}
		got, err := p.Run(context.Background(), eng, st.cfg)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recycled probe Result differs from a new probe's:\nrecycled: outputs=%d gen=%d verdict=%+v\nnew:      outputs=%d gen=%d verdict=%+v",
				st.name, got.Outputs, got.Generated, got.Verdict, want.Outputs, want.Generated, want.Verdict)
		}
	}
}

// TestProbeRunBitIdenticalToFresh is the arena determinism pin: for every
// engine, one Probe runs an aggregation, a join, a fault schedule, a
// rescale plan, a broker config and an aggregation again, and every run
// must be deep-equal to the same config on a new Probe — the path
// RunContext takes.
func TestProbeRunBitIdenticalToFresh(t *testing.T) {
	join := probeTestConfig(0.3e6)
	join.Query = workload.Default(workload.Join)

	faulted := probeTestConfig(0.6e6)
	faulted.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindKillWorker, Worker: 1, At: 15 * time.Second, RestartAfter: 5 * time.Second},
		{Kind: fault.KindStall, At: 25 * time.Second, For: 2 * time.Second, Factor: 0.5},
	}}

	rescaled := probeTestConfig(0.6e6)
	rescaled.Rescale = &fault.RescalePlan{Steps: []fault.RescaleStep{
		{At: 15 * time.Second, Workers: 6},
		{At: 30 * time.Second, Workers: 3},
	}}

	brokered := probeTestConfig(0.5e6)
	bcfg := broker.DefaultConfig()
	brokered.Broker = &bcfg
	brokered.WatermarkSlack = 200 * time.Millisecond

	dirty := probeTestConfig(1.1e6)
	dirty.Seed = 7

	checkProbeSequence(t, []probeStep{
		{"aggregation", dirty},
		{"join", join},
		{"faults", faulted},
		{"rescale", rescaled},
		{"broker", brokered},
		{"aggregation again", probeTestConfig(0.6e6)},
	})
}

// TestProbeReusePerformsLittleAllocation pins the arena's reason to
// exist: steady-state probe runs after the first must perform near-zero
// setup allocation on every engine and query (the bound is loose against
// GC noise; a regression to fresh construction is two orders of magnitude
// above it).
func TestProbeReusePerformsLittleAllocation(t *testing.T) {
	join := probeTestConfig(0.3e6)
	join.Query = workload.Default(workload.Join)
	for _, eng := range probeEngines() {
		for _, cfg := range []Config{probeTestConfig(0.6e6), join} {
			t.Run(eng.Name()+"/"+cfg.Query.Type.String(), func(t *testing.T) {
				p := NewProbe()
				// Warm the arena through two runs so every component has grown.
				for i := 0; i < 2; i++ {
					if _, err := p.Run(context.Background(), eng, cfg); err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := p.Run(context.Background(), eng, cfg); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 500 {
					t.Fatalf("steady-state probe run allocated %.0f times, want near-zero (fresh construction is ~10k)", allocs)
				}
			})
		}
	}
}

// TestProbeReshapes pins that a probe survives config shape changes —
// worker count, queue fleet, queue bound, a rescale plan's provisioning —
// by rebuilding only the mismatching components, still bit-identical to
// runs on a new Probe.
func TestProbeReshapes(t *testing.T) {
	big := probeTestConfig(0.6e6)
	big.Workers = 8
	big.GeneratorInstances = 8

	capped := big
	capped.QueueCapPerInstance = 1 << 20

	// Starts on 4 workers but is provisioned for 8: the same cluster
	// size as big, with fewer nodes in service.
	scaleOut := probeTestConfig(0.6e6)
	scaleOut.Rescale = &fault.RescalePlan{Steps: []fault.RescaleStep{{At: 20 * time.Second, Workers: 8}}}

	checkProbeSequence(t, []probeStep{
		{"4 workers", probeTestConfig(0.6e6)},
		{"8 workers, 8 generators", big},
		{"bounded queues", capped},
		{"provisioned past the active set", scaleOut},
		{"4 workers again", probeTestConfig(0.6e6)},
	})
}
