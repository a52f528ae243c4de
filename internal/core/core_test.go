package core

import (
	"strings"
	"testing"
)

func TestEngineByName(t *testing.T) {
	for _, n := range []string{"storm", "spark", "flink"} {
		e, err := EngineByName(n)
		if err != nil || e.Name() != n {
			t.Fatalf("EngineByName(%q): %v", n, err)
		}
	}
	if _, err := EngineByName("samza"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if len(Engines()) != 3 {
		t.Fatal("three engines expected")
	}
}

func TestPaperRates(t *testing.T) {
	agg := PaperRates(false)
	if agg["flink/2"] != 1.2e6 || agg["storm/8"] != 0.99e6 {
		t.Fatalf("aggregation anchors wrong: %+v", agg)
	}
	join := PaperRates(true)
	if join["flink/8"] != 1.19e6 || join["spark/2"] != 0.36e6 {
		t.Fatalf("join anchors wrong: %+v", join)
	}
	if _, ok := join["storm/2"]; ok {
		t.Fatal("storm has no published join rate (naive join aside)")
	}
}

// mustRun executes the experiment at Quick scale and sanity-checks the
// outcome envelope.
func mustRun(t *testing.T, id string) (*Outcome, error) {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	out, err := e.Run(Options{Scale: Quick})
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(out.Text) == "" {
		t.Fatalf("%s produced no text artefact", id)
	}
	if len(out.Metrics) == 0 {
		t.Fatalf("%s produced no metrics", id)
	}
	return out, nil
}

func TestAblationBrokerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := mustRun(t, "ablation-broker")
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	// The broker must cap throughput below the direct deployment and
	// raise the latency floor (Section III-A's argument).
	if m["broker/rate"] >= m["direct/rate"]*0.9 {
		t.Fatalf("broker should bottleneck: %v vs direct %v", m["broker/rate"], m["direct/rate"])
	}
	if m["broker/avg_latency"] <= m["direct/avg_latency"] {
		t.Fatalf("broker should add latency: %v vs %v", m["broker/avg_latency"], m["direct/avg_latency"])
	}
}

func TestAblationGuaranteesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := mustRun(t, "ablation-guarantees")
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	// Weaker guarantees buy throughput; stronger ones cost a bounded
	// share of it.
	if m["storm/at-most-once"] <= m["storm/at-least-once"] {
		t.Fatalf("disabling acking should raise storm's rate: %v vs %v",
			m["storm/at-most-once"], m["storm/at-least-once"])
	}
	if m["flink/exactly-once"] >= m["flink/at-least-once"]*1.01 {
		t.Fatalf("exactly-once should not be free: %v vs %v",
			m["flink/exactly-once"], m["flink/at-least-once"])
	}
	if m["flink/exactly-once"] < m["flink/at-least-once"]*0.85 {
		t.Fatalf("exactly-once cost implausibly high: %v vs %v",
			m["flink/exactly-once"], m["flink/at-least-once"])
	}
}

func TestAblationDisorderShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := mustRun(t, "ablation-disorder")
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	// No slack: contributions are lost.  Slack >= the disorder bound:
	// nothing is lost, but latency rises with slack.
	if m["slack=0s/dropped_frac"] <= 0 {
		t.Fatal("zero slack under disorder should lose contributions")
	}
	if m["slack=2s/dropped_frac"] != 0 {
		t.Fatalf("slack at the disorder bound should lose nothing: %v", m["slack=2s/dropped_frac"])
	}
	if m["slack=4s/avg_latency"] <= m["slack=0s/avg_latency"] {
		t.Fatal("more slack must mean more latency")
	}
}
