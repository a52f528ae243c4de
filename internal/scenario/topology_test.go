package scenario

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

// topologySpec mirrors examples/scenarios/partition-straggler.json in
// miniature: all three per-worker fault kinds on one engine grid.
func topologySpec(engines ...string) Spec {
	if len(engines) == 0 {
		engines = []string{"storm", "spark", "flink"}
	}
	return Spec{
		Name:    "tiny-topology",
		Title:   "tiny per-worker fault topology",
		Seeds:   1,
		Measure: Measure{Kind: MeasureRecoverySeries},
		Faults: []Fault{
			{Kind: "partition", At: Duration(15e9), For: Duration(8e9), Groups: [][]int{{0, 1, 2}, {3}}},
			{Kind: "slow-worker", Worker: 2, At: Duration(32e9), For: Duration(8e9), Factor: 0.2},
			{Kind: "checkpoint-restore", Worker: 1, At: Duration(50e9), RestartAfter: Duration(5e9)},
		},
		Sweeps: []Sweep{{
			Engines: engines,
			Workers: []int{4},
			Query:   Query{Kind: "aggregation"},
			Load:    Load{Kind: LoadConstant, RateEvPerSec: 0.55e6},
		}},
	}
}

func TestTopologyFaultSpecValidation(t *testing.T) {
	if err := topologySpec().Validate(); err != nil {
		t.Fatalf("base topology spec should validate: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"partition group beyond smallest cluster", func(s *Spec) {
			s.Faults[0].Groups = [][]int{{0, 1}, {4}}
		}, "does not exist"},
		{"partition with a single group", func(s *Spec) {
			s.Faults[0].Groups = [][]int{{0, 1, 2, 3}}
		}, "at least 2 groups"},
		{"partition duplicate member", func(s *Spec) {
			s.Faults[0].Groups = [][]int{{0, 1}, {1, 2}}
		}, "more than one group"},
		{"groups on a kill", func(s *Spec) {
			s.Faults[0] = Fault{Kind: "kill-worker", Worker: 0, At: Duration(5e9), Groups: [][]int{{0}, {1}}}
		}, "groups apply"},
		{"straggler with zero factor", func(s *Spec) {
			s.Faults[1].Factor = 0
		}, "straggler factor"},
		{"checkpoint-restore without restart", func(s *Spec) {
			s.Faults[2].RestartAfter = 0
		}, "restart_after must be > 0"},
	}
	for _, c := range cases {
		s := topologySpec()
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
}

// TestFaultFreeIdentityUnchangedByGroupsField pins the result-cache
// guarantee of the schema extension: a fault-free cell, and a legacy
// kill/stall cell, must hash exactly as they did before the Groups field
// existed (omitempty keeps absent fields out of the identity JSON).
func TestFaultFreeIdentityUnchangedByGroupsField(t *testing.T) {
	legacy := recoverySpec()
	withEmpty := recoverySpec()
	withEmpty.Faults[0].Groups = nil // explicit nil == absent
	o := core.Options{Seed: 42}
	keyOf := func(s Spec) string {
		exp, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		return exp.Cells(o)[0].Key
	}
	if keyOf(legacy) != keyOf(withEmpty) {
		t.Fatal("nil Groups must not change a legacy cell's content key")
	}
	// And a partitioned schedule is a different experiment.
	parted := topologySpec("flink")
	if keyOf(parted) == keyOf(legacy) {
		t.Fatal("per-worker faulted cell shares a content key with a legacy cell")
	}
}

func TestExamplePartitionStragglerScenarioLoads(t *testing.T) {
	s, err := LoadFile("../../examples/scenarios/partition-straggler.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Measure.Kind != MeasureRecoverySeries {
		t.Fatalf("measure kind = %q, want %q", s.Measure.Kind, MeasureRecoverySeries)
	}
	if len(s.Faults) != 3 {
		t.Fatalf("faults = %d, want 3 (partition, slow-worker, checkpoint-restore)", len(s.Faults))
	}
	kinds := map[string]bool{}
	for _, f := range s.Faults {
		kinds[f.Kind] = true
	}
	for _, k := range []string{"partition", "slow-worker", "checkpoint-restore"} {
		if !kinds[k] {
			t.Errorf("example is missing a %q fault", k)
		}
	}
	exp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(exp.Cells(core.Options{Seed: 42})); got != 3 {
		t.Fatalf("cells = %d, want 3 (one per engine)", got)
	}
}

// TestPartitionStragglerDeterministicAndEngineOrdered is the pin test for
// the per-worker topology: the scenario runs byte-identically, and its
// recovery metrics differ across engines exactly the way the per-engine
// recovery models predict — checkpoint restore (flink) costs more than
// record replay (storm), which costs more than lineage recompute (spark),
// for a 5s outage.
func TestPartitionStragglerDeterministicAndEngineOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	s, err := LoadFile("../../examples/scenarios/partition-straggler.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*core.Outcome, []byte) {
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
	out, a := run()
	_, b := run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed + same per-worker fault schedule must produce byte-identical artifacts")
	}

	restore := map[string]float64{}
	for _, eng := range []string{"storm", "spark", "flink"} {
		r, ok := out.Metrics[eng+"/fault2/restore_s"]
		if !ok {
			t.Fatalf("missing %s/fault2/restore_s; have %v", eng, out.Metrics)
		}
		restore[eng] = r
		// replayed_tuples accompanies restore_s and scales with it.
		rp, ok := out.Metrics[eng+"/fault2/replayed_tuples"]
		if !ok {
			t.Fatalf("missing %s/fault2/replayed_tuples", eng)
		}
		if (r > 0) != (rp > 0) {
			t.Fatalf("%s: restore_s=%v but replayed_tuples=%v", eng, r, rp)
		}
		// recovery_cost_s sums modeled restore over the schedule's single
		// checkpoint-restore fault.
		if cost := out.Metrics[eng+"/recovery_cost_s"]; cost != r {
			t.Fatalf("%s: recovery_cost_s=%v, want restore_s sum %v", eng, cost, r)
		}
		// Only the checkpoint-restore fault carries restore metrics.
		for _, fi := range []string{"fault0", "fault1"} {
			if _, ok := out.Metrics[eng+"/"+fi+"/restore_s"]; ok {
				t.Fatalf("%s/%s must not carry restore_s (not a checkpoint-restore)", eng, fi)
			}
		}
		// Every fault reports a dip and a recovery time.
		for _, fi := range []string{"fault0", "fault1", "fault2"} {
			if _, ok := out.Metrics[eng+"/"+fi+"/dip"]; !ok {
				t.Fatalf("missing %s/%s/dip", eng, fi)
			}
			if _, ok := out.Metrics[eng+"/"+fi+"/recovery_s"]; !ok {
				t.Fatalf("missing %s/%s/recovery_s", eng, fi)
			}
		}
	}
	// The model-predicted engine ordering for a 5s outage: flink pays a
	// fixed reload + half its 10s checkpoint interval (7s), storm replays
	// the outage at 1.5x (3.33s), spark recomputes lineage at 0.6x (3s),
	// and everything is strictly positive.
	if !(restore["flink"] > restore["storm"] && restore["storm"] > restore["spark"] && restore["spark"] > 0) {
		t.Fatalf("restore_s = %v, want flink > storm > spark > 0", restore)
	}
	// Spark's rate-controlled receiver really dips when a worker crashes:
	// 3/4 of its 4-node capacity (0.48M ev/s) sits below the offered
	// 0.55M ev/s.  Storm's bang-bang spout bursts at 1.35x capacity and
	// flink's fabric headroom is even larger, so both absorb a 25% loss
	// at this load without an ingest dip — which is itself the
	// architectural contrast the measure exists to show.
	if dip := out.Metrics["spark/fault2/dip"]; dip <= 0 || dip > 1 {
		t.Fatalf("spark/fault2/dip = %v, want in (0, 1]", dip)
	}
}

// TestPermanentFaultRecoverySentinel pins the recovery_s semantics for
// faults that never end (satellite: the -1 sentinel).  A permanent fault
// (kill without restart) reports -1 by definition and carries no restore
// metrics; a transient fault whose backlog cannot drain before the run
// ends also reports -1.
func TestPermanentFaultRecoverySentinel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	run := func(s Spec) *core.Outcome {
		exp, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exp.RunContext(context.Background(), core.Options{Seed: 7, Scale: core.Quick}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Permanent: worker 1 never restarts, half of flink's 2-node cluster
	// is gone for good and the 0.8M ev/s offered load can never drain.
	permanent := recoverySpec()
	permanent.Faults[0].RestartAfter = 0
	out := run(permanent)
	if got := out.Metrics["flink/fault0/recovery_s"]; got != -1 {
		t.Fatalf("permanent fault recovery_s = %v, want the -1 sentinel", got)
	}
	if _, ok := out.Metrics["flink/fault0/restore_s"]; ok {
		t.Fatal("permanent fault must not emit restore_s")
	}
	if _, ok := out.Metrics["flink/fault0/replayed_tuples"]; ok {
		t.Fatal("permanent fault must not emit replayed_tuples")
	}
	if !strings.Contains(out.Text, "never recovers") {
		t.Fatal("artifact text should flag the permanent fault")
	}

	// Transient but undrainable: the worker restarts only 15s before the
	// 75s quick run ends, after 40s of half-capacity deficit — the
	// backlog outlives the run, so the sentinel fires from the series
	// scan rather than by definition.
	undrainable := recoverySpec()
	undrainable.Faults[0].RestartAfter = Duration(40e9)
	out = run(undrainable)
	if got := out.Metrics["flink/fault0/recovery_s"]; got != -1 {
		t.Fatalf("undrainable backlog recovery_s = %v, want the -1 sentinel", got)
	}
}
