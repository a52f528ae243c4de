package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/engine/storm"
	"repro/internal/fault"
	"repro/internal/generator"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/workload"
)

// Axis-nesting orders for grid enumeration.
const (
	orderEWL = "engines,workers,loads"
	orderELW = "engines,loads,workers"
	orderWEL = "workers,engines,loads"
)

// defaultOrder returns the measurement kind's canonical axis nesting: the
// paper presents latency tables engine → load → cluster size and every
// figure engine → cluster size → load.
func defaultOrder(kind string) string {
	if kind == MeasureLatency {
		return orderELW
	}
	return orderEWL
}

// point is one grid coordinate of a sweep: an engine on a cluster size at
// a load point.
type point struct {
	sweep   int
	engine  string
	workers int
	// pct is the load percentage for table-rates loads, 100 otherwise;
	// hasPct marks whether the pct axis exists (>1 load points).
	pct    int
	hasPct bool
}

// points enumerates the spec's grid in cell order: sweeps in declaration
// order, each expanded along its (possibly overridden) axis nesting.  Both
// cell enumeration and assembly derive from this one function, so they can
// never disagree about ordering.
func points(s Spec) []point {
	var out []point
	for si, sw := range s.Sweeps {
		pcts := []int{100}
		hasPct := false
		if sw.Load.Kind == LoadTableRates {
			pcts = sw.Load.Pcts
			hasPct = len(pcts) > 1
		}
		order := sw.Order
		if order == "" {
			order = defaultOrder(s.Measure.Kind)
		}
		emit := func(e string, w, pct int) {
			out = append(out, point{sweep: si, engine: e, workers: w, pct: pct, hasPct: hasPct})
		}
		switch order {
		case orderELW:
			for _, e := range sw.Engines {
				for _, pct := range pcts {
					for _, w := range sw.Workers {
						emit(e, w, pct)
					}
				}
			}
		case orderWEL:
			for _, w := range sw.Workers {
				for _, e := range sw.Engines {
					for _, pct := range pcts {
						emit(e, w, pct)
					}
				}
			}
		default: // orderEWL
			for _, e := range sw.Engines {
				for _, w := range sw.Workers {
					for _, pct := range pcts {
						emit(e, w, pct)
					}
				}
			}
		}
	}
	return out
}

// cellID renders a point's stable cell identifier: prefix, engine, then
// only the axes that actually vary within the sweep.
func cellID(s Spec, p point) string {
	sw := s.Sweeps[p.sweep]
	parts := make([]string, 0, 4)
	if sw.Prefix != "" {
		parts = append(parts, sw.Prefix)
	}
	parts = append(parts, p.engine)
	if len(sw.Workers) > 1 {
		parts = append(parts, strconv.Itoa(p.workers))
	}
	if p.hasPct {
		parts = append(parts, strconv.Itoa(p.pct))
	}
	return strings.Join(parts, "/")
}

// expand substitutes the grid placeholders into a label/metric template.
func expand(tmpl string, s Spec, p point) string {
	sw := s.Sweeps[p.sweep]
	r := strings.NewReplacer(
		"{prefix}", sw.Prefix,
		"{engine}", p.engine,
		"{workers}", strconv.Itoa(p.workers),
		"{pct}", strconv.Itoa(p.pct),
		"{query}", sw.Query.Kind,
	)
	return r.Replace(tmpl)
}

// labelFor returns the point's panel title.  The pair/throughput series
// defaults reuse the cell-ID rule (only axes that vary appear), so sweeps
// over several worker counts or load points stay distinguishable.
func labelFor(s Spec, p point) string {
	if l := s.Sweeps[p.sweep].Label; l != "" {
		return expand(l, s, p)
	}
	switch s.Measure.Kind {
	case MeasureLatencySeries:
		return fmt.Sprintf("%s, %d-node, %d%% throughput", p.engine, p.workers, p.pct)
	case MeasureLatency:
		return p.engine
	default:
		return cellID(s, p)
	}
}

// metricBase returns the point's metric base key.
func metricBase(s Spec, p point) string {
	if t := s.Sweeps[p.sweep].MetricKey; t != "" {
		return expand(t, s, p)
	}
	switch s.Measure.Kind {
	case MeasureSustainable:
		return fmt.Sprintf("%s/%d", p.engine, p.workers)
	case MeasureLatency, MeasureLatencySeries:
		return fmt.Sprintf("%s/%d/%d", p.engine, p.workers, p.pct)
	default:
		return cellID(s, p)
	}
}

// seriesStats returns the measure's per-panel statistics list.
func seriesStats(m Measure) []string {
	if len(m.SeriesStats) > 0 {
		return m.SeriesStats
	}
	if m.Kind == MeasureThroughputSeries {
		return []string{"cv"}
	}
	return []string{"mean"}
}

// schedule builds the point's offered-load schedule.
func schedule(sw Sweep, p point, o core.Options, join bool) (generator.RateSchedule, error) {
	switch sw.Load.Kind {
	case LoadTableRates:
		base, ok := core.PaperRates(join)[fmt.Sprintf("%s/%d", p.engine, p.workers)]
		if !ok {
			return nil, fmt.Errorf("scenario: no published rate for %s/%d", p.engine, p.workers)
		}
		return generator.ConstantRate(base * float64(p.pct) / 100), nil
	case LoadConstant:
		return generator.ConstantRate(sw.Load.RateEvPerSec), nil
	case LoadSteps:
		sched := make(generator.StepSchedule, len(sw.Load.Steps))
		for i, st := range sw.Load.Steps {
			sched[i] = generator.Step{From: st.From.D(), Rate: st.RateEvPerSec}
		}
		return sched, nil
	case LoadFluctuation:
		return generator.PaperFluctuation(o.RunFor(), sw.Load.HighEvPerSec, sw.Load.LowEvPerSec), nil
	}
	return nil, fmt.Errorf("scenario: sweep has no load schedule")
}

// applyInputShape copies the sweep's input-shape knobs (key distribution,
// disorder, watermark slack) onto a driver config.  Zero-valued knobs
// leave the driver defaults untouched, which is what keeps specs without
// them byte-identical to the hand-written experiments they replaced.
func applyInputShape(cfg *driver.Config, sw Sweep) {
	if sw.Load.Keys != nil {
		cfg.Keys = sw.Load.Keys.build()
	}
	cfg.DisorderProb = sw.Load.DisorderProb
	cfg.DisorderMax = sw.Load.DisorderMax.D()
	cfg.WatermarkSlack = sw.WatermarkSlack.D()
}

// Wire shapes of the generic cells.  Only their JSON matters: the shapes
// are internal to the scenario layer, and the canonical cell encoding is
// what travels between agents and folds into artifacts.

// searchResult is one sustainable-rate bisection.
type searchResult struct {
	Cell report.ThroughputCell
	Rate float64
}

// latencyResult is one fixed-rate latency-statistics run.  Like the other
// wire shapes it carries raw coordinates, never spec-derived labels:
// labelling happens at assembly, so a result cached under its content key
// renders correctly inside any scenario that shares the grid point.
type latencyResult struct {
	Engine  string
	Workers int
	Pct     int
	Summary metrics.Summary
}

// seriesResult carries a point's coordinates plus whichever series its
// measure collects, and the run's Definition 5 verdict.
type seriesResult struct {
	Engine      string
	Workers     int
	Pct         int
	Event       *metrics.Series   `json:",omitempty"`
	Proc        *metrics.Series   `json:",omitempty"`
	Throughput  *metrics.Series   `json:",omitempty"`
	CPU         []*metrics.Series `json:",omitempty"`
	Net         []*metrics.Series `json:",omitempty"`
	Extra       *metrics.Series   `json:",omitempty"`
	Sustainable bool              `json:",omitempty"`
}

// outcomeResult is one fixed-rate run of the outcome measure: a failed
// run is reported, not raised.
type outcomeResult struct {
	Failed      bool
	FailReason  string `json:",omitempty"`
	Sustainable bool
	AvgLatency  float64
}

// recoveryResult carries a point's throughput and queue-depth series under
// the spec's fault schedule: the dip and backlog drain that the
// recovery-series assembly turns into per-fault metrics.
type recoveryResult struct {
	Engine     string
	Workers    int
	Pct        int
	Throughput *metrics.Series
	Depth      *metrics.Series
}

// naiveJoinRate / naiveJoinStall are the Storm naive-join aside shapes.
type naiveJoinRate struct {
	Rate float64
}

type naiveJoinStall struct {
	Failed     bool
	FailReason string
}

// cellIdentity is everything a cell's result is a pure function of; its
// hash is the content key agents use to reuse finished cells across
// overlapping scenario submissions.
type cellIdentity struct {
	Measure string
	Engine  string
	Workers int
	Query   workload.Query
	Load    Load
	Slack   Duration
	Pct     int
	Seed    uint64
	Scale   string
	// Faults is part of the identity because a faulted run's result is a
	// function of its schedule.  omitempty keeps fault-free identities —
	// and therefore their content keys and result caches — byte-identical
	// to what they hashed to before faults existed.
	Faults []Fault `json:",omitempty"`
	// Rescale and Domains join the identity the same way: a rescaling
	// run's result is a function of its plan, a domain outage's of the
	// domain map (Go maps marshal with sorted keys, so the encoding is
	// canonical).  omitempty keeps rescale-free, domain-free content keys
	// — and the result caches behind them — byte-identical to pre-rescale
	// builds.
	Rescale []RescaleStep    `json:",omitempty"`
	Domains map[string][]int `json:",omitempty"`
	// Spill and Extra change what a cell computes or returns; omitempty
	// keeps every cell without them on its existing key.
	Spill bool   `json:",omitempty"`
	Extra string `json:",omitempty"`
}

func contentKey(id cellIdentity) string {
	b, err := json.Marshal(id)
	if err != nil {
		return "" // unhashable identity: fall back to spec addressing
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// MustCompile compiles a spec and panics on error; for the builtin specs,
// whose validity is covered by tests.
func MustCompile(s Spec) core.Experiment {
	e, err := Compile(s)
	if err != nil {
		panic(err)
	}
	return e
}

// Compile lowers a validated spec into a core experiment: a deterministic
// cell enumeration (the grid) plus a pure assembly step whose rendering is
// selected by the measurement kind.  Seeds > 1 wraps the grid in
// core.Replicated, one cell per (seed, grid point).
func Compile(s Spec) (core.Experiment, error) {
	if err := s.Validate(); err != nil {
		return core.Experiment{}, err
	}
	title := s.Title
	if title == "" {
		title = s.Name
	}
	base := core.Experiment{
		ID:          s.Name,
		Title:       title,
		Description: s.Description,
		Cells:       func(o core.Options) []core.Cell { return gridCells(s, o) },
		Assemble:    func(o core.Options, raws [][]byte) (*core.Outcome, error) { return assemble(s, o, raws) },
	}
	if s.Seeds > 1 {
		return core.Replicated(base, s.Seeds), nil
	}
	return base, nil
}

// gridCells enumerates the spec's cells for the given options.
func gridCells(s Spec, o core.Options) []core.Cell {
	o = o.WithDefaults()
	pts := points(s)
	cells := make([]core.Cell, 0, len(pts)+2)
	for _, p := range pts {
		p := p
		sw := s.Sweeps[p.sweep]
		q, err := sw.Query.build()
		join := q.Type == workload.Join
		// The identity carries the point's resolved load (Pct), never the
		// sweep's whole Pcts axis — two overlapping scenarios listing
		// different pct sets still share the grid points they have in
		// common.
		idLoad := sw.Load
		idLoad.Pcts = nil
		// A bisecting point computes the same search under any measure,
		// so it shares the sustainable measure's key (and cached result).
		measure := s.Measure.Kind
		if bisects(s.Measure, sw) {
			measure = MeasureSustainable
		}
		ident := cellIdentity{
			Measure: measure, Engine: p.engine, Workers: p.workers,
			Query: q, Load: idLoad, Slack: sw.WatermarkSlack, Pct: p.pct,
			Seed: o.Seed, Scale: o.Scale.String(), Faults: s.Faults,
			Rescale: s.Rescale, Domains: s.Domains,
			Spill: sw.SpillableState, Extra: s.Measure.Extra,
		}
		cells = append(cells, core.Cell{
			ID:  cellID(s, p),
			Key: contentKey(ident),
			Run: func(ctx context.Context, o core.Options) (any, error) {
				if err != nil {
					return nil, err
				}
				return runPoint(ctx, s, sw, p, q, join, o)
			},
		})
	}
	if s.Measure.Aside == AsideStormNaiveJoin {
		cells = append(cells, asideCells(s, o)...)
	}
	return cells
}

// engineFor builds the sweep's deployment of the named engine.
func engineFor(sw Sweep, name string) (engine.Engine, error) {
	if sw.SpillableState { // validated storm-only
		return storm.New(storm.Options{SpillableState: true}), nil
	}
	return core.EngineByName(name)
}

// runPoint executes one grid point under the spec's measurement kind.
func runPoint(ctx context.Context, s Spec, sw Sweep, p point, q workload.Query, join bool, o core.Options) (any, error) {
	eng, err := engineFor(sw, p.engine)
	if err != nil {
		return nil, err
	}
	if bisects(s.Measure, sw) {
		cfg := driver.Config{Seed: o.Seed, Workers: p.workers, Query: q}
		applyInputShape(&cfg, sw)
		rate, res, err := driver.FindSustainableContext(ctx, eng, cfg, o.SearchConfig())
		if err != nil {
			return nil, err
		}
		cell := report.ThroughputCell{Engine: p.engine, Workers: p.workers, RateEvPerSec: rate}
		if res != nil && !res.Verdict.Sustainable && rate == 0 {
			cell.RateEvPerSec = -1
			cell.Note = res.FailReason
		}
		return searchResult{Cell: cell, Rate: rate}, nil
	}
	sched, err := schedule(sw, p, o, join)
	if err != nil {
		return nil, err
	}
	cfg := driver.Config{
		Seed:           o.Seed,
		Workers:        p.workers,
		Rate:           sched,
		Query:          q,
		RunFor:         o.RunFor(),
		EventsPerTuple: o.EventsPerTuple(),
		Faults:         buildFaults(s.Faults, s.Domains),
		Rescale:        buildRescale(s.Rescale),
	}
	applyInputShape(&cfg, sw)
	res, err := driver.RunContext(ctx, eng, cfg)
	if err != nil {
		return nil, err
	}
	switch s.Measure.Kind {
	case MeasureLatency:
		return latencyResult{Engine: p.engine, Workers: p.workers, Pct: p.pct,
			Summary: res.EventLatency.Summarize()}, nil
	case MeasureRecoverySeries:
		return recoveryResult{Engine: p.engine, Workers: p.workers, Pct: p.pct,
			Throughput: res.ThroughputSeries, Depth: res.QueueDepthSeries}, nil
	case MeasureOutcome:
		return outcomeResult{Failed: res.Failed, FailReason: res.FailReason,
			Sustainable: res.Verdict.Sustainable, AvgLatency: res.EventLatency.Mean().Seconds()}, nil
	}
	r := seriesResult{Engine: p.engine, Workers: p.workers, Pct: p.pct, Sustainable: res.Verdict.Sustainable}
	switch s.Measure.Kind {
	case MeasureLatencySeries:
		r.Event = res.EventLatencySeries
	case MeasureLatencyPairSeries:
		r.Event, r.Proc = res.EventLatencySeries, res.ProcLatencySeries
	case MeasureThroughputSeries:
		r.Throughput = res.ThroughputSeries
	case MeasureResourceSeries:
		r.CPU, r.Net = res.CPU, res.Net
	default:
		return nil, fmt.Errorf("scenario: unhandled measure kind %q", s.Measure.Kind)
	}
	if name := s.Measure.Extra; name != "" {
		if r.Extra = res.Extra[name]; r.Extra == nil {
			return nil, fmt.Errorf("scenario: engine %s has no extra series %q", p.engine, name)
		}
	}
	return r, nil
}

// asideCells appends the Storm naive-join aside: the paper's Experiment 2
// observation that Storm has no built-in windowed join — the naive
// implementation sustains ~0.14M ev/s on 2 nodes and stalls beyond.
func asideCells(s Spec, o core.Options) []core.Cell {
	sw := s.Sweeps[0]
	q, qerr := sw.Query.build()
	ident := func(kind string, workers int) string {
		return contentKey(cellIdentity{
			Measure: kind, Engine: "storm", Workers: workers, Query: q,
			Seed: o.Seed, Scale: o.Scale.String(),
		})
	}
	return []core.Cell{
		{
			ID:  "storm-naive/2",
			Key: ident("aside-naive-join-rate", 2),
			Run: func(ctx context.Context, o core.Options) (any, error) {
				if qerr != nil {
					return nil, qerr
				}
				naive, err := core.EngineByName("storm")
				if err != nil {
					return nil, err
				}
				rate, _, err := driver.FindSustainableContext(ctx, naive, driver.Config{
					Seed: o.Seed, Workers: 2, Query: q,
				}, o.SearchConfig())
				if err != nil {
					return nil, err
				}
				return naiveJoinRate{Rate: rate}, nil
			},
		},
		{
			ID:  "storm-naive/4",
			Key: ident("aside-naive-join-stall", 4),
			Run: func(ctx context.Context, o core.Options) (any, error) {
				if qerr != nil {
					return nil, qerr
				}
				naive, err := core.EngineByName("storm")
				if err != nil {
					return nil, err
				}
				res, err := driver.RunContext(ctx, naive, driver.Config{
					Seed: o.Seed, Workers: 4,
					Rate:           generator.ConstantRate(0.14e6),
					Query:          q,
					RunFor:         o.RunFor(),
					EventsPerTuple: o.EventsPerTuple(),
				})
				if err != nil {
					return nil, err
				}
				return naiveJoinStall{Failed: res.Failed, FailReason: res.FailReason}, nil
			},
		},
	}
}

// decode unmarshals one canonical cell encoding.
func decode[T any](raw []byte) (T, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, fmt.Errorf("scenario: decode cell result: %w", err)
	}
	return v, nil
}

// assemble folds the canonical cell encodings into the artefact, rendering
// by measurement kind: tables through report.ThroughputTable /
// report.LatencyTable, series through report.Figure with CSV and panels.
func assemble(s Spec, o core.Options, raws [][]byte) (*core.Outcome, error) {
	pts := points(s)
	want := len(pts)
	if s.Measure.Aside == AsideStormNaiveJoin {
		want += 2
	}
	if len(raws) != want {
		return nil, fmt.Errorf("scenario %s: %d cell results, want %d", s.Name, len(raws), want)
	}
	heading := s.Heading
	if heading == "" {
		heading = s.Title
	}
	if heading == "" {
		heading = s.Name
	}
	switch s.Measure.Kind {
	case MeasureSustainable:
		return assembleSustainable(s, pts, heading, raws)
	case MeasureLatency:
		return assembleLatency(s, pts, heading, raws)
	case MeasureRecoverySeries:
		return assembleRecovery(s, o, pts, heading, raws)
	case MeasureOutcome:
		return assembleOutcome(s, pts, heading, raws)
	default:
		return assembleSeries(s, o, pts, heading, raws)
	}
}

func assembleSustainable(s Spec, pts []point, heading string, raws [][]byte) (*core.Outcome, error) {
	var cells []report.ThroughputCell
	metricsOut := map[string]float64{}
	for i, p := range pts {
		r, err := decode[searchResult](raws[i])
		if err != nil {
			return nil, err
		}
		cells = append(cells, r.Cell)
		metricsOut[metricBase(s, p)] = r.Rate
	}
	text := report.ThroughputTable(heading, cells)
	if s.Measure.Aside == AsideStormNaiveJoin {
		naive, err := decode[naiveJoinRate](raws[len(pts)])
		if err != nil {
			return nil, err
		}
		stall, err := decode[naiveJoinStall](raws[len(pts)+1])
		if err != nil {
			return nil, err
		}
		metricsOut["storm-naive/2"] = naive.Rate
		note := "no failure observed"
		if stall.Failed {
			note = stall.FailReason
			metricsOut["storm-naive/4/failed"] = 1
		}
		text += fmt.Sprintf("Storm aside (naive join, no built-in windowed join): %.2f M/s on 2 nodes; on 4 nodes: %s\n",
			naive.Rate/1e6, note)
	}
	return &core.Outcome{Text: text, Metrics: metricsOut}, nil
}

func assembleLatency(s Spec, pts []point, heading string, raws [][]byte) (*core.Outcome, error) {
	rows := make([]report.LatencyRow, len(pts))
	metricsOut := map[string]float64{}
	for i, p := range pts {
		r, err := decode[latencyResult](raws[i])
		if err != nil {
			return nil, err
		}
		// The row name is the sweep label when one is set, so multiple
		// sweeps over the same engines (e.g. a knob sweep) render as
		// distinct table rows.
		rows[i] = report.LatencyRow{
			Engine: labelFor(s, p), LoadPct: p.pct, Workers: p.workers,
			Summary: r.Summary,
		}
		base := metricBase(s, p)
		metricsOut[base+"/avg"] = r.Summary.Avg.Seconds()
		metricsOut[base+"/p99"] = r.Summary.P99.Seconds()
	}
	return &core.Outcome{
		Text:    report.LatencyTable(heading, rows),
		Metrics: metricsOut,
	}, nil
}

// statOf evaluates one named statistic over a series.
func statOf(stat string, series *metrics.Series, o core.Options) float64 {
	switch stat {
	case "mean":
		return series.Mean()
	case "max":
		return series.Max()
	case "min":
		return series.Min()
	case "cv":
		return series.Tail(o.RunFor() / 4).CoefficientOfVariation()
	case "slope":
		return series.Slope()
	}
	return 0
}

// flag renders a boolean as a 1/0 metric.
func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// assembleSeries renders the series kinds: each point's panels, and per
// series the measure's stats as {base}/{role}{stat}, where role names the
// series when a point renders several ("event_", "proc_", "cpu_", "net_",
// "<extra>_") and is empty otherwise.
func assembleSeries(s Spec, o core.Options, pts []point, heading string, raws [][]byte) (*core.Outcome, error) {
	o = o.WithDefaults()
	stats := seriesStats(s.Measure)
	var panels []report.FigurePanel
	metricsOut := map[string]float64{}
	for i, p := range pts {
		r, err := decode[seriesResult](raws[i])
		if err != nil {
			return nil, err
		}
		label := labelFor(s, p)
		base := metricBase(s, p)
		add := func(title, unit, role string, sr *metrics.Series) {
			panels = append(panels, report.FigurePanel{Title: title, Series: sr, Unit: unit})
			for _, st := range stats {
				metricsOut[base+"/"+role+st] = statOf(st, sr, o)
			}
		}
		// perNode renders one panel per node and emits each stat as its
		// mean over the nodes.
		perNode := func(what, unit, role string, series []*metrics.Series) {
			sums := make([]float64, len(stats))
			for n, sr := range series {
				panels = append(panels, report.FigurePanel{
					Title: fmt.Sprintf("%s node-%d %s", label, n+1, what), Series: sr, Unit: unit})
				for j, st := range stats {
					sums[j] += statOf(st, sr, o)
				}
			}
			for j, st := range stats {
				metricsOut[base+"/"+role+st] = sums[j] / float64(len(series))
			}
		}
		switch s.Measure.Kind {
		case MeasureLatencyPairSeries:
			add(label+" event-time", "s", "event_", r.Event)
			add(label+" processing-time", "s", "proc_", r.Proc)
		case MeasureThroughputSeries:
			add(label, " ev/s", "", r.Throughput)
		case MeasureResourceSeries:
			perNode("CPU load", "%", "cpu_", r.CPU)
			perNode("network", "MB", "net_", r.Net)
		default: // MeasureLatencySeries
			add(label, "s", "", r.Event)
		}
		if r.Extra != nil {
			add(label+" "+s.Measure.Extra, "s", s.Measure.Extra+"_", r.Extra)
		}
		if s.Measure.Verdict {
			metricsOut[base+"/sustainable"] = flag(r.Sustainable)
		}
	}
	return &core.Outcome{
		Text:    report.Figure(heading, panels),
		CSV:     report.CSV(panels),
		Panels:  panels,
		Metrics: metricsOut,
	}, nil
}

// assembleOutcome renders the outcome measure: one line per point.  A
// bisecting point emits its rate under {base}; a fixed-rate point emits
// {base}/failed, /sustainable and /avg_latency.
func assembleOutcome(s Spec, pts []point, heading string, raws [][]byte) (*core.Outcome, error) {
	var b strings.Builder
	metricsOut := map[string]float64{}
	b.WriteString(heading + "\n\n")
	for i, p := range pts {
		label, base := labelFor(s, p), metricBase(s, p)
		if bisects(s.Measure, s.Sweeps[p.sweep]) {
			r, err := decode[searchResult](raws[i])
			if err != nil {
				return nil, err
			}
			metricsOut[base] = r.Rate
			fmt.Fprintf(&b, "%s: sustainable %.2f M/s\n", label, r.Rate/1e6)
			continue
		}
		r, err := decode[outcomeResult](raws[i])
		if err != nil {
			return nil, err
		}
		metricsOut[base+"/failed"] = flag(r.Failed)
		metricsOut[base+"/sustainable"] = flag(r.Sustainable)
		metricsOut[base+"/avg_latency"] = r.AvgLatency
		if r.Failed {
			fmt.Fprintf(&b, "%s: FAILED: %s\n", label, r.FailReason)
		} else {
			fmt.Fprintf(&b, "%s: sustainable=%v, avg event-time latency %.1f s\n", label, r.Sustainable, r.AvgLatency)
		}
	}
	return &core.Outcome{Text: b.String(), Metrics: metricsOut}, nil
}

// recoveryModelFor returns the recovery cost model of the named engine —
// the same Recovery its Deploy binds to the runtime, so derived metrics
// and injected restore tails always agree.  Unknown engines (or engines
// without a model) recover instantly.
func recoveryModelFor(name string) fault.Recovery {
	eng, err := core.EngineByName(name)
	if err != nil {
		return fault.Recovery{}
	}
	if m, ok := eng.(engine.RecoveryModeler); ok {
		return m.Recovery()
	}
	return fault.Recovery{}
}

// rescaleModelFor returns the rescale cost model of the named engine — the
// same Rescale its Deploy binds to the runtime, so derived transition
// metrics and injected transition stalls always agree.  Unknown engines
// (or engines without a model) rescale instantly.
func rescaleModelFor(name string) fault.Rescale {
	eng, err := core.EngineByName(name)
	if err != nil {
		return fault.Rescale{}
	}
	if m, ok := eng.(engine.RescaleModeler); ok {
		return m.Rescale()
	}
	return fault.Rescale{}
}

// assembleRecovery renders the recovery-series artefact: a throughput panel
// and a queue-depth panel per grid point, plus per-fault metrics — the
// relative throughput dip during each fault window, the time the backlog
// takes to drain back to its pre-fault level once the fault ends, and for
// checkpoint-restore faults the engine's modeled restore time and replayed
// tuple count.  recovery_s semantics are pinned: -1 is the "never
// recovered" sentinel, reported both when a drainable backlog never drains
// within the run and — by definition, without scanning — for permanent
// faults (a kill without restart, an unhealed partition), which also carry
// no restore metrics.  Per grid point, recovery_cost_s sums the modeled
// restore time across faults, which is where the per-engine recovery
// comparison (checkpoint vs lineage vs replay) surfaces.
//
// When the spec carries a rescale plan, each step additionally emits
// rescale<i>/rescale_cost_s (the engine-modeled transition window),
// rescale<i>/dropped_capacity_s (cost × the capacity fraction lost during
// the transition) and rescale<i>/steady_throughput (the mean throughput
// after the transition settles, up to the next step), plus a per-point
// rescale_cost_s headline summing the windows — where the per-engine
// rescale comparison (savepoint vs rebalance vs dynamic allocation)
// surfaces.
func assembleRecovery(s Spec, o core.Options, pts []point, heading string, raws [][]byte) (*core.Outcome, error) {
	o = o.WithDefaults()
	faults := buildFaults(s.Faults, s.Domains)
	plan := buildRescale(s.Rescale)
	runEnd := o.RunFor()
	var panels []report.FigurePanel
	metricsOut := map[string]float64{}
	var sb strings.Builder
	for i, p := range pts {
		r, err := decode[recoveryResult](raws[i])
		if err != nil {
			return nil, err
		}
		label := labelFor(s, p)
		base := metricBase(s, p)
		recModel := recoveryModelFor(p.engine)
		panels = append(panels,
			report.FigurePanel{Title: label + " throughput", Series: r.Throughput, Unit: " ev/s"},
			report.FigurePanel{Title: label + " queue depth", Series: r.Depth, Unit: " ev"},
		)
		totalRestore := 0.0
		var events []fault.Event
		if faults != nil {
			events = faults.Events
		}
		for fi, e := range events {
			dip, rec, baseline := faultRecovery(r.Throughput, r.Depth, e.At, e.End(runEnd))
			metricsOut[fmt.Sprintf("%s/fault%d/dip", base, fi)] = dip
			if e.Permanent() {
				// A fault that never ends within the run never recovers:
				// the sentinel holds by definition, and restore metrics
				// would be garbage, so none are emitted.
				metricsOut[fmt.Sprintf("%s/fault%d/recovery_s", base, fi)] = -1
				fmt.Fprintf(&sb, "%s: fault %d (%s at %s): throughput dip %.0f%%, permanent — never recovers\n",
					label, fi, e.Kind, e.At, dip*100)
				continue
			}
			metricsOut[fmt.Sprintf("%s/fault%d/recovery_s", base, fi)] = rec
			recStr := "not within the run"
			if rec >= 0 {
				recStr = fmt.Sprintf("%.1fs", rec)
			}
			fmt.Fprintf(&sb, "%s: fault %d (%s at %s): throughput dip %.0f%%, backlog recovery %s",
				label, fi, e.Kind, e.At, dip*100, recStr)
			if e.Kind == fault.KindCheckpointRestore {
				// The engine-modeled part of the outage: state restore
				// after restart, and the tuples the restoring worker
				// reprocesses at its pre-fault per-worker rate.
				restore := recModel.Restore(e.RestartAfter).Seconds()
				replayed := 0.0
				if p.workers > 0 {
					replayed = baseline / float64(p.workers) * restore
				}
				metricsOut[fmt.Sprintf("%s/fault%d/restore_s", base, fi)] = restore
				metricsOut[fmt.Sprintf("%s/fault%d/replayed_tuples", base, fi)] = replayed
				totalRestore += restore
				kindStr := recModel.Kind
				if kindStr == "" {
					kindStr = fault.RecoveryInstant
				}
				fmt.Fprintf(&sb, ", %s restore %.1fs (%.0f tuples replayed)", kindStr, restore, replayed)
			}
			sb.WriteString("\n")
		}
		metricsOut[base+"/recovery_cost_s"] = totalRestore
		if plan != nil {
			rsModel := rescaleModelFor(p.engine)
			kindStr := rsModel.Kind
			if kindStr == "" {
				kindStr = fault.RescaleInstant
			}
			totalRescale := 0.0
			prev := p.workers
			for ri, st := range plan.Steps {
				start, end := plan.Window(ri, p.workers, rsModel)
				cost := (end - start).Seconds()
				dropped := cost * (1 - rsModel.Stall)
				steadyEnd := runEnd
				if ri+1 < len(plan.Steps) {
					steadyEnd = plan.Steps[ri+1].At
				}
				steady := meanBetween(r.Throughput, end, steadyEnd)
				metricsOut[fmt.Sprintf("%s/rescale%d/rescale_cost_s", base, ri)] = cost
				metricsOut[fmt.Sprintf("%s/rescale%d/dropped_capacity_s", base, ri)] = dropped
				metricsOut[fmt.Sprintf("%s/rescale%d/steady_throughput", base, ri)] = steady
				totalRescale += cost
				fmt.Fprintf(&sb, "%s: rescale %d (%d→%d workers at %s): %s transition %.1fs, capacity dropped %.1fs, steady throughput %.0f ev/s\n",
					label, ri, prev, st.Workers, st.At, kindStr, cost, dropped, steady)
				prev = st.Workers
			}
			metricsOut[base+"/rescale_cost_s"] = totalRescale
		}
	}
	return &core.Outcome{
		Text:    report.Figure(heading, panels) + sb.String(),
		CSV:     report.CSV(panels),
		Panels:  panels,
		Metrics: metricsOut,
	}, nil
}

// faultRecovery computes one fault's effect from a point's throughput and
// queue-depth series.  dip is the relative throughput drop during
// [start, end) against the pre-fault mean, clipped to [0, 1].  recovery is
// the time after end until the queue depth first drains back within 10% of
// its pre-fault level (relative to the fault-era peak), in seconds: 0 when
// the fault left no backlog, -1 when the backlog never drains in the run.
// baseline is the pre-fault mean throughput the dip is measured against.
func faultRecovery(th, depth *metrics.Series, start, end time.Duration) (dip, recovery, baseline float64) {
	n := 0
	for _, pt := range th.Points {
		if pt.T >= start {
			break
		}
		baseline += pt.V
		n++
	}
	if n > 0 {
		baseline /= float64(n)
	}
	minDuring, saw := 0.0, false
	for _, pt := range th.Points {
		if pt.T < start || pt.T >= end {
			continue
		}
		if !saw || pt.V < minDuring {
			minDuring, saw = pt.V, true
		}
	}
	if baseline > 0 && saw {
		dip = 1 - minDuring/baseline
		if dip < 0 {
			dip = 0
		} else if dip > 1 {
			dip = 1
		}
	}

	baseDepth, dn := 0.0, 0
	peak := 0.0
	for _, pt := range depth.Points {
		if pt.T < start {
			baseDepth += pt.V
			dn++
		} else if pt.V > peak {
			peak = pt.V
		}
	}
	if dn > 0 {
		baseDepth /= float64(dn)
	}
	if peak <= baseDepth {
		return dip, 0, baseline // the fault never built a backlog
	}
	threshold := baseDepth + 0.1*(peak-baseDepth)
	for _, pt := range depth.Points {
		if pt.T < end {
			continue
		}
		if pt.V <= threshold {
			return dip, (pt.T - end).Seconds(), baseline
		}
	}
	return dip, -1, baseline
}

// meanBetween averages the series points with from <= T < to; 0 when the
// window holds no points (a transition ending at or past the run's end).
func meanBetween(s *metrics.Series, from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, pt := range s.Points {
		if pt.T < from || pt.T >= to {
			continue
		}
		sum += pt.V
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
