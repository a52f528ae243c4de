package scenario

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
)

// The paper's evaluation — every table, figure and experiment —
// expressed as scenario specs and registered through the same Compile path
// user scenarios take.  Their artifacts are pinned byte for byte by
// golden_test.go: the grids against the hand-written cell enumerations
// they replaced, fig7/fig10/fig11/exp3/exp4 against their first compiled
// output, whose numbers match the hand-written code's bit for bit.
//
// Only the three ablations remain code-registered in internal/core: each
// is a single-cell narrative whose prose is the artefact (see
// DESIGN-SCENARIO.md §3).
func init() {
	for _, s := range Builtin() {
		core.Register(MustCompile(s))
	}
}

// Builtin returns the paper's experiments as specs.  Only the top-level
// slice is freshly allocated: the specs are built once and every call
// shares their engine-list, sweep and load sub-slices, so derive variants
// by building new Spec values (or marshalling through JSON), never by
// mutating elements in place.
func Builtin() []Spec { return slices.Clone(builtins) }

var builtins = builtinSpecs()

func builtinSpecs() []Spec {
	all := []string{"storm", "spark", "flink"}
	joiners := []string{"spark", "flink"}
	agg := Query{Kind: "aggregation"}
	join := Query{Kind: "join"}
	fluct := Load{Kind: LoadFluctuation, HighEvPerSec: 0.84e6, LowEvPerSec: 0.28e6}
	skew := &Keys{Kind: "single", Key: 1}
	return []Spec{
		{
			Name:        "table1",
			Title:       "Table I: sustainable throughput for windowed aggregations",
			Description: "Bisect the maximum sustainable rate (Definition 5) of the aggregation query (8s,4s) for Storm, Spark and Flink on 2/4/8 workers.",
			Heading:     "Table I: sustainable throughput, windowed aggregation (8s, 4s)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureSustainable},
			Sweeps: []Sweep{
				{Engines: all, Workers: []int{2, 4, 8}, Query: agg},
			},
		},
		{
			Name:        "table2",
			Title:       "Table II: latency statistics for windowed aggregations",
			Description: "Event-time latency avg/min/max/quantiles at the Table I workloads and at 90% of them.",
			Heading:     "Table II: event-time latency, windowed aggregation (8s, 4s)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureLatency},
			Sweeps: []Sweep{
				{Engines: all, Workers: []int{2, 4, 8}, Query: agg,
					Load: Load{Kind: LoadTableRates, Pcts: []int{100, 90}}},
			},
		},
		{
			Name:        "table3",
			Title:       "Table III: sustainable throughput for windowed joins",
			Description: "Bisect the maximum sustainable rate of the join query (8s,4s) for Spark and Flink; includes the Storm naive-join aside.",
			Heading:     "Table III: sustainable throughput, windowed join (8s, 4s)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureSustainable, Aside: AsideStormNaiveJoin},
			Sweeps: []Sweep{
				{Engines: joiners, Workers: []int{2, 4, 8}, Query: join},
			},
		},
		{
			Name:        "table4",
			Title:       "Table IV: latency statistics for windowed joins",
			Description: "Event-time latency statistics at the Table III workloads and at 90% of them.",
			Heading:     "Table IV: event-time latency, windowed join (8s, 4s)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureLatency},
			Sweeps: []Sweep{
				{Engines: joiners, Workers: []int{2, 4, 8}, Query: join,
					Load: Load{Kind: LoadTableRates, Pcts: []int{100, 90}}},
			},
		},
		{
			Name:        "fig4",
			Title:       "Figure 4: windowed aggregation latency distributions in time series",
			Description: "Event-time latency over time for every engine × cluster size at max and 90% workloads (18 panels).",
			Heading:     "Figure 4: windowed aggregation latency over time",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureLatencySeries},
			Sweeps: []Sweep{
				{Engines: all, Workers: []int{2, 4, 8}, Query: agg,
					Load: Load{Kind: LoadTableRates, Pcts: []int{100, 90}}},
			},
		},
		{
			Name:        "fig5",
			Title:       "Figure 5: windowed join latency distributions in time series",
			Description: "Event-time latency over time for Spark and Flink at max and 90% join workloads (12 panels).",
			Heading:     "Figure 5: windowed join latency over time",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureLatencySeries},
			Sweeps: []Sweep{
				{Engines: joiners, Workers: []int{2, 4, 8}, Query: join,
					Load: Load{Kind: LoadTableRates, Pcts: []int{100, 90}}},
			},
		},
		{
			Name:        "fig6",
			Title:       "Figure 6 / Experiment 5: fluctuating workloads",
			Description: "Event-time latency under a 0.84M -> 0.28M -> 0.84M ev/s arrival-rate schedule, aggregation for all engines and join for Spark/Flink.",
			Heading:     "Figure 6: event-time latency under fluctuating arrival rate (0.84M -> 0.28M -> 0.84M ev/s, 8 nodes)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureLatencySeries, SeriesStats: []string{"max", "mean"}},
			Sweeps: []Sweep{
				// Every engine sustains the 0.84M ev/s peak on 8 nodes.
				{Prefix: "agg", Engines: all, Workers: []int{8}, Query: agg, Load: fluct,
					Label: "{engine} aggregation", MetricKey: "{engine} aggregation"},
				{Prefix: "join", Engines: joiners, Workers: []int{8}, Query: join, Load: fluct,
					Label: "{engine} join", MetricKey: "{engine} join"},
			},
		},
		{
			Name:        "fig8",
			Title:       "Figure 8 / Experiment 6: event-time vs processing-time latency",
			Description: "Both latency definitions side by side for each engine, aggregation (8s,4s) on 2 nodes at the sustainable rate.",
			Heading:     "Figure 8: event-time vs processing-time latency (aggregation, 2 nodes, sustainable rate)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureLatencyPairSeries},
			Sweeps: []Sweep{
				{Engines: all, Workers: []int{2}, Query: agg,
					Load: Load{Kind: LoadTableRates, Pcts: []int{100}}},
			},
		},
		{
			Name:        "fig9",
			Title:       "Figure 9 / Experiment 8: throughput (pull rate) over time",
			Description: "SUT ingestion rate measured at the driver queues at the maximum sustainable aggregation workload; Storm fluctuates strongly, Spark moderately, Flink barely.",
			Heading:     "Figure 9: SUT ingestion rate over time (aggregation, 4 nodes, max sustainable)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureThroughputSeries},
			Sweeps: []Sweep{
				{Engines: all, Workers: []int{4}, Query: agg,
					Load:  Load{Kind: LoadTableRates, Pcts: []int{100}},
					Label: "{engine} pull rate"},
			},
		},
		{
			Name:        "fig7",
			Title:       "Figure 7: event vs processing-time latency under unsustainable load (Spark)",
			Description: "Spark on 2 nodes at ~1.6x its sustainable aggregation rate: processing-time latency stays flat while event-time latency diverges — the coordinated-omission illustration.",
			Heading:     "Figure 7: Spark, 2 nodes, offered 0.6M ev/s (unsustainable)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureLatencyPairSeries, SeriesStats: []string{"slope"}, Verdict: true},
			Sweeps: []Sweep{
				// ~1.6x the sustainable 0.38M ev/s: clearly unsustainable.
				{Engines: []string{"spark"}, Workers: []int{2}, Query: agg,
					Load: Load{Kind: LoadConstant, RateEvPerSec: 0.6e6}},
			},
		},
		{
			Name:        "fig10",
			Title:       "Figure 10: network and CPU usage (4-node aggregation)",
			Description: "Per-node network MB and CPU load while running the aggregation query at the sustainable rate; Flink uses the least CPU (network-bound).",
			Heading:     "Figure 10: per-node network (MB/interval) and CPU load (aggregation, 4 nodes)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureResourceSeries},
			Sweeps: []Sweep{
				{Engines: all, Workers: []int{4}, Query: agg,
					Load: Load{Kind: LoadTableRates, Pcts: []int{100}}},
			},
		},
		{
			Name:        "fig11",
			Title:       "Figure 11: scheduler delay vs throughput in Spark",
			Description: "Spark at the onset of overload: scheduler-delay spikes coincide with ingestion-rate dips.",
			Heading:     "Figure 11: Spark scheduler delay vs throughput (aggregation, 4 nodes, overload onset)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureThroughputSeries, SeriesStats: []string{"cv", "max", "mean"}, Extra: "scheduler_delay"},
			Sweeps: []Sweep{
				// Slightly above the 4-node sustainable rate: overload onset.
				{Engines: []string{"spark"}, Workers: []int{4}, Query: agg,
					Load: Load{Kind: LoadConstant, RateEvPerSec: 0.70e6}},
			},
		},
		exp3(),
		{
			Name:        "exp4",
			Title:       "Experiment 4: data skew",
			Description: "Single-key stream: Storm/Flink pin at one slot's capacity regardless of scale; Spark's tree aggregate keeps scaling and wins on >=4 nodes; the skewed join breaks both Spark and Flink.",
			Heading:     "Experiment 4: extreme data skew (all events share one key)",
			Seeds:       1,
			Measure:     Measure{Kind: MeasureOutcome},
			Sweeps: []Sweep{
				// No load: the sustainable rate under single-key input.
				{Prefix: "agg", Engines: all, Workers: []int{2, 4, 8}, Order: orderWEL, Query: agg,
					Load: Load{Keys: skew}, Label: "{engine} {workers}-node aggregation", MetricKey: "{engine}/{workers}"},
				{Prefix: "join", Engines: joiners, Workers: []int{4}, Query: join,
					Load:  Load{Kind: LoadConstant, RateEvPerSec: 0.3e6, Keys: skew},
					Label: "{engine} join @0.30M ev/s, 4 nodes", MetricKey: "{engine}/join"},
			},
		},
	}
}

// exp3 is Experiment 3's large-window spec: each Spark sliding strategy
// bisected and then run at 0.19M ev/s (half the small-window rate, where
// the paper saw the 10x latency blow-up for caching), the small-window
// reference rate, Storm with and without spillable state, and Flink at
// the network bound.
func exp3() Spec {
	large := Query{Kind: "aggregation", WindowSize: Duration(60 * time.Second), WindowSlide: Duration(60 * time.Second)}
	spark, two := []string{"spark"}, []int{2}
	var sweeps []Sweep
	for _, strat := range []string{"default", "recompute", "inverse-reduce"} {
		q := large
		q.Strategy = strat
		sweeps = append(sweeps,
			Sweep{Prefix: "rate/" + strat, Engines: spark, Workers: two, Query: q,
				Label: "spark strategy=" + strat, MetricKey: "spark/" + strat + "/rate"},
			Sweep{Prefix: "latency/" + strat, Engines: spark, Workers: two, Query: q,
				Load:  Load{Kind: LoadConstant, RateEvPerSec: 0.19e6},
				Label: "spark strategy=" + strat + " @0.19M ev/s", MetricKey: "spark/" + strat})
	}
	sweeps = append(sweeps, Sweep{Prefix: "rate/smallwindow", Engines: spark, Workers: two,
		Query: Query{Kind: "aggregation"}, Label: "spark reference (8s,4s) window", MetricKey: "spark/smallwindow/rate"})
	for _, spill := range []bool{false, true} {
		id := fmt.Sprintf("spill=%v", spill)
		sweeps = append(sweeps, Sweep{Prefix: id, Engines: []string{"storm"}, Workers: two, Query: large,
			Load:           Load{Kind: LoadConstant, RateEvPerSec: 0.40e6},
			SpillableState: spill,
			Label:          fmt.Sprintf("storm spillable-state=%v @0.40M ev/s", spill), MetricKey: "storm/" + id})
	}
	sweeps = append(sweeps, Sweep{Prefix: "large", Engines: []string{"flink"}, Workers: two, Query: large,
		Load:  Load{Kind: LoadConstant, RateEvPerSec: 1.2e6},
		Label: "flink @1.20M ev/s (network bound)", MetricKey: "flink/large"})
	return Spec{
		Name:        "exp3",
		Title:       "Experiment 3: queries with large windows",
		Description: "Aggregation with a (60s,60s) window: Spark's cached-window strategy vs recompute vs inverse-reduce; Storm's OOM without spillable state; Flink's incremental aggregation unaffected.",
		Heading:     "Experiment 3: large windows — aggregation (60s, 60s) vs (8s, 4s), 2 workers",
		Seeds:       1,
		Measure:     Measure{Kind: MeasureOutcome},
		Sweeps:      sweeps,
	}
}
