package scenario

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// rescaleSpec mirrors examples/scenarios/elastic-rescale.json in
// miniature: a 4→6 scale-out at 30s with a correlated domain outage
// fencing the newly added pair mid-transition.
func rescaleSpec(engines ...string) Spec {
	if len(engines) == 0 {
		engines = []string{"storm", "spark", "flink"}
	}
	return Spec{
		Name:    "tiny-rescale",
		Title:   "tiny elastic rescale",
		Seeds:   1,
		Measure: Measure{Kind: MeasureRecoverySeries},
		Domains: map[string][]int{"rack-a": {0, 1, 2, 3}, "rack-b": {4, 5}},
		Rescale: []RescaleStep{{At: Duration(30e9), Workers: 6}},
		Faults: []Fault{
			{Kind: "domain-outage", Domain: "rack-b", At: Duration(32e9), For: Duration(6e9)},
		},
		Sweeps: []Sweep{{
			Engines: engines,
			Workers: []int{4},
			Query:   Query{Kind: "aggregation"},
			Load:    Load{Kind: LoadConstant, RateEvPerSec: 0.55e6},
		}},
	}
}

func TestRescaleSpecValidation(t *testing.T) {
	if err := rescaleSpec().Validate(); err != nil {
		t.Fatalf("base rescale spec should validate: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"rescale forbids the sustainable measure", func(s *Spec) {
			s.Measure = Measure{Kind: MeasureSustainable}
			s.Faults = nil
			s.Domains = nil
			s.Sweeps[0].Load = Load{}
		}, "rescale cannot combine"},
		{"steps must move forward in time", func(s *Spec) {
			s.Rescale = append(s.Rescale, RescaleStep{At: Duration(30e9), Workers: 4})
		}, "rescale step 1 (workers=4)"},
		{"step workers must be positive", func(s *Spec) {
			s.Rescale[0].Workers = 0
		}, "rescale step 0 (workers=0)"},
		{"domain-outage needs a declared domain", func(s *Spec) {
			s.Faults[0].Domain = "rack-z"
		}, "rack-z"},
		{"domain applies to domain-outage only", func(s *Spec) {
			s.Faults = append(s.Faults, Fault{Kind: "stall", At: Duration(50e9), For: Duration(2e9), Domain: "rack-a"})
		}, "domain applies"},
		{"domain members bounded by the rescaled peak", func(s *Spec) {
			s.Domains["rack-b"] = []int{4, 6}
		}, "does not exist"},
	}
	for _, c := range cases {
		s := rescaleSpec()
		c.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}

	// A rescale-only recovery-series spec is legal: the transition itself
	// is the disturbance being measured.
	planOnly := rescaleSpec()
	planOnly.Faults = nil
	planOnly.Domains = nil
	if err := planOnly.Validate(); err != nil {
		t.Fatalf("rescale-only recovery-series spec should validate: %v", err)
	}
}

// TestRescaleFreeIdentityUnchanged pins the result-cache guarantee of the
// schema extension: a rescale-free, domain-free cell must hash exactly as
// it did before the fields existed (omitempty keeps absent fields out of
// the identity JSON), and a rescaling cell is a different experiment.
func TestRescaleFreeIdentityUnchanged(t *testing.T) {
	legacy := recoverySpec()
	withEmpty := recoverySpec()
	withEmpty.Rescale = nil
	withEmpty.Domains = nil
	o := core.Options{Seed: 42}
	keyOf := func(s Spec) string {
		exp, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		return exp.Cells(o)[0].Key
	}
	if keyOf(legacy) != keyOf(withEmpty) {
		t.Fatal("nil Rescale/Domains must not change a legacy cell's content key")
	}
	rescaled := recoverySpec()
	rescaled.Rescale = []RescaleStep{{At: Duration(30e9), Workers: 4}}
	if keyOf(rescaled) == keyOf(legacy) {
		t.Fatal("rescaling cell shares a content key with a legacy cell")
	}
}

func TestExampleElasticRescaleScenarioLoads(t *testing.T) {
	s, err := LoadFile("../../examples/scenarios/elastic-rescale.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Measure.Kind != MeasureRecoverySeries {
		t.Fatalf("measure kind = %q, want %q", s.Measure.Kind, MeasureRecoverySeries)
	}
	if len(s.Rescale) != 1 || s.Rescale[0].Workers != 6 {
		t.Fatalf("rescale = %+v, want one step to 6 workers", s.Rescale)
	}
	if len(s.Domains) != 2 {
		t.Fatalf("domains = %v, want rack-a and rack-b", s.Domains)
	}
	if len(s.Faults) != 1 || s.Faults[0].Kind != "domain-outage" {
		t.Fatalf("faults = %+v, want one domain-outage", s.Faults)
	}
	exp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(exp.Cells(core.Options{Seed: 42})); got != 3 {
		t.Fatalf("cells = %d, want 3 (one per engine)", got)
	}
}

// TestElasticRescaleDeterministicAndCostOrdered is the pin test for the
// elastic-rescale tentpole: the example scenario runs byte-identically —
// across repeated runs and across GOMAXPROCS settings — and its per-rescale
// transition metrics order the engines exactly as the rescale cost models
// predict: Flink's savepoint-stop/restore (5s for a 4→6 step) costs more
// than Storm's rebalance (1.5s), which costs more than Spark's dynamic
// allocation (0.7s), which costs more than the ideal engine's instant
// rescale (0).
func TestElasticRescaleDeterministicAndCostOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s, err := LoadFile("../../examples/scenarios/elastic-rescale.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) (*core.Outcome, []byte) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		exp, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		o := core.Options{Seed: 7, Scale: core.Quick}
		out, err := exp.RunContext(context.Background(), o, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := core.NewArtifact(exp, o, out).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return out, raw
	}
	out, a := run(1)
	_, b := run(1)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed + same rescale plan must produce byte-identical artifacts")
	}
	_, c := run(4)
	if !bytes.Equal(a, c) {
		t.Fatal("artifact bytes must not depend on GOMAXPROCS")
	}

	cost := map[string]float64{}
	for _, eng := range []string{"storm", "spark", "flink"} {
		v, ok := out.Metrics[eng+"/rescale0/rescale_cost_s"]
		if !ok {
			t.Fatalf("missing %s/rescale0/rescale_cost_s; have %v", eng, out.Metrics)
		}
		cost[eng] = v
		// dropped_capacity_s never exceeds the window itself.
		dropped, ok := out.Metrics[eng+"/rescale0/dropped_capacity_s"]
		if !ok {
			t.Fatalf("missing %s/rescale0/dropped_capacity_s", eng)
		}
		if dropped < 0 || dropped > v {
			t.Fatalf("%s: dropped_capacity_s = %v, want in [0, %v]", eng, dropped, v)
		}
		// After the transition settles the six workers carry the load.
		steady, ok := out.Metrics[eng+"/rescale0/steady_throughput"]
		if !ok {
			t.Fatalf("missing %s/rescale0/steady_throughput", eng)
		}
		if steady <= 0 {
			t.Fatalf("%s: steady_throughput = %v, want > 0", eng, steady)
		}
		// The headline sums the plan's single step.
		if got := out.Metrics[eng+"/rescale_cost_s"]; got != v {
			t.Fatalf("%s: rescale_cost_s = %v, want step sum %v", eng, got, v)
		}
		// The mid-transition outage still reports its dip and recovery.
		if _, ok := out.Metrics[eng+"/fault0/dip"]; !ok {
			t.Fatalf("missing %s/fault0/dip", eng)
		}
	}
	if !(cost["flink"] > cost["storm"] && cost["storm"] > cost["spark"] && cost["spark"] > 0) {
		t.Fatalf("rescale_cost_s = %v, want flink > storm > spark > 0", cost)
	}
	if ideal := rescaleModelFor("ideal").Transition(4, 6); ideal != 0 {
		t.Fatalf("ideal rescale transition = %v, want 0 (instant)", ideal)
	}
	if !strings.Contains(out.Text, "rescale 0 (4→6 workers") {
		t.Fatal("artifact text should narrate the rescale transition")
	}
}

// TestKillOfScaledInWorkerCausesNoDip pins that a fault's capacity does not
// depend on the rescale plan's history: after a 4→6→2 plan, a kill of
// worker 5 hits a worker that is out of service, so the kill leaves the
// two active workers' throughput untouched and builds no backlog.
func TestKillOfScaledInWorkerCausesNoDip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s := Spec{
		Name:    "scale-in-kill",
		Title:   "kill of a scaled-in worker",
		Seeds:   1,
		Measure: Measure{Kind: MeasureRecoverySeries},
		Rescale: []RescaleStep{{At: Duration(20e9), Workers: 6}, {At: Duration(35e9), Workers: 2}},
		Faults: []Fault{
			{Kind: "kill-worker", Worker: 5, At: Duration(50e9), RestartAfter: Duration(8e9)},
		},
		Sweeps: []Sweep{{
			Engines: []string{"spark"},
			Workers: []int{4},
			Query:   Query{Kind: "aggregation"},
			Load:    Load{Kind: LoadConstant, RateEvPerSec: 0.3e6},
		}},
	}
	exp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exp.Run(core.Options{Seed: 42, Scale: core.Quick})
	if err != nil {
		t.Fatal(err)
	}
	// Micro-batch jitter alone moves the windowed minimum by a few
	// percent; halving the two workers' capacity dips it by half.
	if dip := out.Metrics["spark/fault0/dip"]; dip > 0.1 {
		t.Fatalf("kill of scaled-in worker 5 dips throughput by %.2f, want none", dip)
	}
	if rec := out.Metrics["spark/fault0/recovery_s"]; rec != 0 {
		t.Fatalf("kill of scaled-in worker 5 built a backlog (recovery_s = %v), want none", rec)
	}
}
