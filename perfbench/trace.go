package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// trace collects the spans and counts of one traced sample, each taken at
// a public call boundary from the benchmark's side.
type trace struct {
	cells       *cellTrace
	api         apiRecorder
	ctl         ctlTimes
	assembleRun time.Duration
	store       map[string]float64
	artifact    []byte
}

func newTrace() *trace { return &trace{cells: newCellTrace()} }

// measureStore times direct Store calls with the finished run's manifest
// and measures the store's size on disk.  The calls go to a second store
// so the deployment's own stays as the run left it.
func (tr *trace) measureStore(d *deployment) error {
	src, err := ctl.NewStore(d.dir)
	if err != nil {
		return err
	}
	m, err := src.LoadRun(tr.ctl.runID)
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(filepath.Dir(d.dir), "store-copy-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	dst, err := ctl.NewStore(scratch)
	if err != nil {
		return err
	}
	var puts, saves []time.Duration
	for _, c := range m.Cells {
		data, err := src.GetObject(c.ResultSHA)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := dst.PutObject(data); err != nil {
			return err
		}
		puts = append(puts, time.Since(start))
	}
	for i := 0; i < 50; i++ {
		start := time.Now()
		if err := dst.SaveRun(m); err != nil {
			return err
		}
		saves = append(saves, time.Since(start))
	}
	var total, journal int64
	err = filepath.Walk(d.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
			if info.Name() == "journal.jsonl" {
				journal = info.Size()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tr.store = map[string]float64{
		"store.put_object_ms":     median(millis(puts)),
		"store.save_run_ms":       median(millis(saves)),
		"store.bytes":             float64(total),
		"store.journal_bytes":     float64(journal),
		"compare.assemble_run_ms": float64(tr.assembleRun) / float64(time.Millisecond),
	}
	return nil
}

// checks counts the traced run's correctness checks.
type checks struct {
	attempted, failed int
	log               io.Writer
}

func (c *checks) check(name string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(c.log, "FAIL %s: %v\n", name, err)
	}
}

// tracedSample runs one traced sample of r at GOMAXPROCS=procs.
func tracedSample(r runner, procs int) (*trace, cost, error) {
	tr := newTrace()
	var c cost
	err := withProcs(procs, func() error {
		var err error
		c, err = r.sample(tr)
		return err
	})
	return tr, c, err
}

// coreLayers re-runs the traced sample tr of r (which took c at nproc) at
// GOMAXPROCS=1, where r checks the artifact against its reference, and
// returns the core.*, par.* (and, for ctl runners, ctl.*) figures of the
// nproc sample.
func coreLayers(env *env, name string, r runner, tr *trace, c cost, ck *checks) (map[string]float64, error) {
	_, c1, err := tracedSample(r, 1)
	ck.check(name+" at GOMAXPROCS=1", err)
	if err != nil && !errors.Is(err, errMismatch) {
		return nil, err
	}
	m := tr.cells.layerMetrics(c.wall, env.procs)
	m["par.speedup"] = c1.wall.Seconds() / c.wall.Seconds()
	m["wall_s"] = c.wall.Seconds()
	if len(tr.api.lease) > 0 {
		for k, v := range tr.api.metrics() {
			m[k] = v
		}
		m["ctl.submit_ms"] = float64(tr.ctl.submit) / float64(time.Millisecond)
		m["ctl.artifact_ms"] = float64(tr.ctl.artifact) / float64(time.Millisecond)
	}
	return m, nil
}

// searchLayers calls driver.FindSustainableContext once per table1
// deployment, serially, with SearchConfig.Stats, and checks each rate
// against the traced table1 cell for the same deployment.
func searchLayers(o core.Options, cellValues map[string][]byte, ck *checks) (map[string]float64, error) {
	var probes, spec int
	start := time.Now()
	for _, name := range []string{"storm", "spark", "flink"} {
		for _, w := range core.ClusterSizes {
			eng, err := core.EngineByName(name)
			if err != nil {
				return nil, err
			}
			var st driver.SearchStats
			scfg := o.SearchConfig()
			scfg.Stats = &st
			cfg := driver.Config{Seed: o.Seed, Workers: w, Query: workload.Default(workload.Aggregation)}
			rate, _, err := driver.FindSustainableContext(context.Background(), eng, cfg, scfg)
			if err != nil {
				return nil, err
			}
			probes += st.Probes
			spec += st.Speculative
			id := fmt.Sprintf("%s/%d", name, w)
			var cell struct{ Rate float64 }
			err = json.Unmarshal(cellValues[id], &cell)
			if err == nil && cell.Rate != rate {
				err = fmt.Errorf("search found %v, the table1 cell %v", rate, cell.Rate)
			}
			ck.check("driver search "+id+" matches table1", err)
		}
	}
	return map[string]float64{
		"driver.probes":            float64(probes),
		"driver.speculative":       float64(spec),
		"driver.spec_useful_ratio": float64(probes) / float64(spec),
		"driver.search_s":          time.Since(start).Seconds(),
	}, nil
}

// runLayers calls driver.RunContext once per table4 deployment, serially,
// and checks each latency summary against the traced table4 cell.
func runLayers(o core.Options, cellValues map[string][]byte, ck *checks) (map[string]float64, error) {
	var generated, late int64
	depth := 0.0
	m := startMeter()
	rates := core.PaperRates(true)
	for _, pct := range []int{100, 90} {
		for _, name := range []string{"spark", "flink"} {
			for _, w := range core.ClusterSizes {
				eng, err := core.EngineByName(name)
				if err != nil {
					return nil, err
				}
				res, err := driver.RunContext(context.Background(), eng, driver.Config{
					Seed:           o.Seed,
					Workers:        w,
					Rate:           generator.ConstantRate(rates[fmt.Sprintf("%s/%d", name, w)] * float64(pct) / 100),
					Query:          workload.Default(workload.Join),
					RunFor:         o.RunFor(),
					EventsPerTuple: o.EventsPerTuple(),
				})
				if err != nil {
					return nil, err
				}
				generated += res.Generated
				late += res.LateDropped
				depth = max(depth, res.QueueDepthSeries.Max())
				ck.check(fmt.Sprintf("driver run %s/%d@%d%% matches table4", name, w, pct),
					sameSummary(res.EventLatency.Summarize(), cellValues, name, w, pct))
			}
		}
	}
	c := m.stop()
	return map[string]float64{
		"driver.run_s":             c.wall.Seconds(),
		"driver.sim_mev_per_cpu_s": float64(generated) / 1e6 / c.cpu.Seconds(),
		"driver.queue_depth_max":   depth,
		"driver.late_dropped":      float64(late),
	}, nil
}

// sameSummary finds the table4 cell for (engine, workers, pct) among the
// traced cell values and compares its latency summary with got.
func sameSummary(got metrics.Summary, cellValues map[string][]byte, name string, w, pct int) error {
	for _, raw := range cellValues {
		var cell struct {
			Engine  string
			Workers int
			Pct     int
			Summary metrics.Summary
		}
		if err := json.Unmarshal(raw, &cell); err != nil {
			return err
		}
		if cell.Engine == name && cell.Workers == w && cell.Pct == pct {
			if cell.Summary != got {
				return fmt.Errorf("summary %+v, the table4 cell %+v", got, cell.Summary)
			}
			return nil
		}
	}
	return fmt.Errorf("no table4 cell for %s/%d@%d%%", name, w, pct)
}

// oracleChecks runs small fixed-rate aggregation and join runs per engine
// with the driver's event and output taps, and compares the outputs with
// the oracle's event-time ground truth over the interior windows.
//
// Storm has no windowed join (Table III), so it runs the aggregation only.
// Spark assigns events to windows by arrival time, not event time (DStream
// semantics, see internal/engine/spark), so the event-time oracle does not
// define its correct output: its comparison is run and printed, but not
// counted as a check.
func oracleChecks(seed uint64, ck *checks, stdout io.Writer) {
	for _, t := range []workload.Type{workload.Aggregation, workload.Join} {
		for _, eng := range core.Engines() {
			name := fmt.Sprintf("oracle %s %s", eng.Name(), t)
			switch {
			case t == workload.Join && eng.Name() == "storm":
			case eng.Name() == "spark":
				err := oracleCheck(eng, t, seed)
				if err == nil {
					err = errors.New("none")
				}
				fmt.Fprintf(stdout, "%s: not checked (arrival-time windows); differences from the event-time oracle: %v\n", name, err)
			default:
				ck.check(name, oracleCheck(eng, t, seed))
			}
		}
	}
}

func oracleCheck(eng engine.Engine, t workload.Type, seed uint64) error {
	q := workload.Default(t)
	var log []tuple.Event
	var outputs []*tuple.Output
	res, err := driver.Run(eng, driver.Config{
		Seed:           seed,
		Workers:        2,
		Rate:           generator.ConstantRate(0.2e6),
		Query:          q,
		RunFor:         80 * time.Second,
		EventsPerTuple: 200,
		EventTap:       func(e *tuple.Event) { log = append(log, *e) },
		OutputTap:      func(o *tuple.Output) { c := *o; outputs = append(outputs, &c) },
	})
	if err != nil {
		return err
	}
	if res.Failed {
		return fmt.Errorf("run failed: %s", res.FailReason)
	}
	interior := func(end time.Duration) bool { return end > 20*time.Second && end < 60*time.Second }
	if t == workload.Join {
		want := oracle.JoinResultCount(q, log)
		got := map[time.Duration]int{}
		for _, o := range outputs {
			got[o.WindowEnd]++
		}
		checked := 0
		for end, n := range want {
			if !interior(end) {
				continue
			}
			checked++
			if got[end] != n {
				return fmt.Errorf("window %v: %d pairs, oracle expects %d", end, got[end], n)
			}
		}
		if checked < 5 {
			return fmt.Errorf("only %d interior windows", checked)
		}
		return nil
	}
	only := map[time.Duration]bool{}
	for _, o := range outputs {
		if interior(o.WindowEnd) {
			only[o.WindowEnd] = true
		}
	}
	if len(only) < 5 {
		return fmt.Errorf("only %d interior windows", len(only))
	}
	if bad := oracle.CompareAggregates(oracle.Aggregate(q, log), outputs, only); len(bad) > 0 {
		return fmt.Errorf("%d (key, window) sums disagree; first %+v", len(bad), bad[0])
	}
	return nil
}

// profiled runs fn under a CPU profile of this process and returns the
// flat CPU share per package bucket.
func profiled(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return cpuShares(buf.Bytes())
}

// printLayers prints one table row per workload for the per-layer names
// given, so the traced run shows which workload each layer moved on.
func printLayers(w io.Writer, title string, names []string, byWorkload map[string]map[string]float64) {
	fmt.Fprintln(w, title)
	workloads := make([]string, 0, len(byWorkload))
	for k := range byWorkload {
		workloads = append(workloads, k)
	}
	sort.Strings(workloads)
	for _, n := range names {
		var sb strings.Builder
		fmt.Fprintf(&sb, "  %-22s", n)
		for _, wl := range workloads {
			if v, ok := byWorkload[wl][n]; ok {
				fmt.Fprintf(&sb, "  %s=%.4g", wl, v)
			}
		}
		fmt.Fprintln(w, sb.String())
	}
}
