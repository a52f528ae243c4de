// Command perfbench is the repository's end-to-end and per-layer
// benchmark.  It runs one named workload against the public functions of
// internal/core, internal/scenario, internal/ctl and internal/compare in
// this process, checks every artifact byte for byte, and prints one JSON
// result line last:
//
//	perfbench --workload table1-direct --seed 42 --seconds 15 --trace 0
//
// With --trace 0 it measures closed-loop samples for --seconds and reports
// the end-to-end medians.  With --trace 1 it runs the traced suite instead
// and reports the per-layer figures.  See README.md for the workloads and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ctl"
	_ "repro/internal/scenario" // registers the builtin table experiments
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what every workload shares.
type env struct {
	dir   string // scratch directory for coordinator stores
	procs int    // GOMAXPROCS, agents and HTTP connections per host
	o     core.Options
}

var workloadNames = []string{"table1-direct", "table4-direct", "table1-ctl", "ctl-sweep"}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1-direct | table4-direct | table1-ctl | ctl-sweep")
	seed := fs.Uint64("seed", 42, "workload seed (core.Options.Seed)")
	secs := fs.Int("seconds", 15, "how long the untraced run measures")
	traced := fs.Int("trace", 0, "1 = run the traced suite and report per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for the run's scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !validWorkload(*name) || *seed == 0 || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%v), --seed > 0, --seconds >= 1 and --trace 0|1\n", workloadNames)
		return 2
	}

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	// At most procs HTTP connections per coordinator, like the agents.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.MaxConnsPerHost = procs
		t.MaxIdleConnsPerHost = procs
	}
	core.Register(sweepExperiment())

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{dir: scratch, procs: procs, o: core.Options{Seed: *seed}.WithDefaults()}

	var res result
	if *traced == 1 {
		res, err = traceRun(e, *name, stdout, stderr)
	} else {
		res, err = measure(e, *name, time.Duration(*secs)*time.Second, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func validWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// ctlSpec is the run spec a ctl workload submits.
func ctlSpec(e *env, experiment string) ctl.RunSpec {
	return ctl.RunSpec{Experiment: experiment, Seed: e.o.Seed, Scale: e.o.Scale.String()}
}

// ctlArtifact runs spec through a fresh untraced deployment.
func ctlArtifact(e *env, spec ctl.RunSpec) ([]byte, error) {
	d, err := deploy(e.dir, e.procs, nil, nil)
	if err != nil {
		return nil, err
	}
	defer d.close()
	data, _, err := d.runOnce(spec)
	return data, err
}

// prepare builds the named workload's runner.  Its reference artifact
// comes from a different path than the samples take, so every sample is
// also a cross-path byte-identity check:
//
//   - table1-direct against the same run through the ctl deployment;
//   - table4-direct against an in-process run at GOMAXPROCS=1;
//   - table1-ctl against the direct in-process run;
//   - ctl-sweep against an in-process RunContext of the sweep experiment.
func prepare(e *env, name string) (runner, error) {
	switch name {
	case "table1-direct", "table4-direct":
		id := strings.TrimSuffix(name, "-direct")
		exp, err := setupDirect(id, e.o)
		if err != nil {
			return nil, err
		}
		var ref []byte
		if id == "table1" {
			ref, err = ctlArtifact(e, ctlSpec(e, id))
		} else {
			err = withProcs(1, func() error {
				var err error
				ref, err = directArtifact(exp, e.o)
				return err
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		return &directRunner{o: e.o, exp: exp, ref: ref}, nil
	case "table1-ctl":
		exp, err := core.Lookup("table1")
		if err != nil {
			return nil, err
		}
		ref, err := directArtifact(exp, e.o)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		return &ctlRunner{env: e, spec: ctlSpec(e, "table1"), ref: ref}, nil
	case "ctl-sweep":
		ref, err := directArtifact(sweepExperiment(), e.o)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		return &ctlRunner{env: e, spec: ctlSpec(e, sweepID), ref: ref, reassemble: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setupsPerSample is how many times a run sets the system up before each
// sample; setup_s is the median over the run.  Spreading the set-ups over
// the run, instead of timing them all at its start, keeps one slow moment
// of the machine from setting the run's figure.
const setupsPerSample = 3

// measure runs the untraced closed loop for about window and returns the
// end-to-end medians.
func measure(e *env, name string, window time.Duration, stdout, stderr io.Writer) (result, error) {
	r, err := prepare(e, name)
	if err != nil {
		return result{}, err
	}
	var setups, walls, cpus, allocs []float64
	// One untimed warm-up sample first: a process's first sample pays for
	// cold caches and connections that the later ones do not.  Its output
	// is checked like any other.
	attempted, failed := 1, 0
	if _, err := r.sample(nil); err != nil {
		failed++
		fmt.Fprintf(stderr, "warm-up sample failed: %v\n", err)
	}
	start := time.Now()
	last := time.Duration(0)
	// Start another sample only while it should end inside the window,
	// but take at least three.
	for attempted < 4 || time.Since(start)+last <= window {
		for i := 0; i < setupsPerSample; i++ {
			d, err := r.setup()
			if err != nil {
				return result{}, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		// Leave no writeback or pending deletes from the set-ups, earlier
		// samples or earlier runs to compete with this one's file-system
		// calls.
		syscall.Sync()
		attempted++
		c, err := r.sample(nil)
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "sample %d failed: %v\n", attempted, err)
			if failed > 2 && failed == attempted {
				return result{}, errors.New("every sample failed")
			}
			continue
		}
		last = c.wall
		walls = append(walls, c.wall.Seconds())
		cpus = append(cpus, c.cpu.Seconds())
		allocs = append(allocs, float64(c.alloc)/1e6)
	}
	if len(walls) == 0 {
		return result{}, errors.New("every sample failed")
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d samples, GOMAXPROCS=%d\n", name, e.o.Seed, attempted, e.procs)
	fmt.Fprintf(stdout, "  wall_s p50=%.4f max=%.4f  cpu_s p50=%.4f  alloc_mb p50=%.2f  setup_s p50=%.6f  fail_frac=%.3f (%d/%d)\n",
		median(walls), maxOf(walls), median(cpus), median(allocs), median(setups),
		float64(failed)/float64(attempted), failed, attempted)
	fmt.Fprintf(stdout, "  wall_s samples %.4f\n", walls)
	fmt.Fprintf(stdout, "  setup_s samples %.6f\n", setups)
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"wall_s":   {median(walls), "s"},
			"cpu_s":    {median(cpus), "s"},
			"alloc_mb": {median(allocs), "MB"},
			"setup_s":  {median(setups), "s"},
		},
	}, nil
}

// traceRun runs the traced suite: every layer is traced on the workloads
// that exercise it, so one traced run reports every per-layer metric.
// core.* and par.* come from the named workload when it runs simulation
// cells (table1-ctl included) and from table1-direct otherwise; ctl.*
// come from the named workload when it is a ctl workload and from
// ctl-sweep otherwise.  trace.overhead_frac compares the named workload's
// traced sample with an untraced one.
func traceRun(e *env, name string, stdout, stderr io.Writer) (result, error) {
	ck := &checks{log: stderr}
	oracleChecks(e.o.Seed, ck, stdout)

	byWorkload := map[string]map[string]float64{}
	traces := map[string]*trace{}
	costs := map[string]cost{}
	runners := map[string]runner{}
	directs := []string{"table1-direct", "table4-direct"}
	for _, wl := range directs {
		exp, err := setupDirect(strings.TrimSuffix(wl, "-direct"), e.o)
		if err != nil {
			return result{}, err
		}
		// No reference yet: the first traced sample sets it, and the
		// GOMAXPROCS=1 and ctl samples are checked against it.
		runners[wl] = &directRunner{o: e.o, exp: exp}
	}
	shares, err := profiled(func() error {
		for _, wl := range directs {
			tr, c, err := tracedSample(runners[wl], e.procs)
			if err != nil {
				return fmt.Errorf("%s traced: %w", wl, err)
			}
			runners[wl].(*directRunner).ref = tr.artifact
			traces[wl], costs[wl] = tr, c
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}
	runners["table1-ctl"] = &ctlRunner{env: e, spec: ctlSpec(e, "table1"), ref: runners["table1-direct"].(*directRunner).ref}
	tr, c, err := tracedSample(runners["table1-ctl"], e.procs)
	ck.check("table1-ctl = table1-direct", err)
	if err != nil && !errors.Is(err, errMismatch) {
		return result{}, err
	}
	traces["table1-ctl"], costs["table1-ctl"] = tr, c
	for _, wl := range []string{"table1-direct", "table4-direct", "table1-ctl"} {
		m, err := coreLayers(e, wl, runners[wl], traces[wl], costs[wl], ck)
		if err != nil {
			return result{}, err
		}
		byWorkload[wl] = m
	}

	sweepRef, err := directArtifact(sweepExperiment(), e.o)
	if err != nil {
		return result{}, err
	}
	runners["ctl-sweep"] = &ctlRunner{env: e, spec: ctlSpec(e, sweepID), ref: sweepRef, reassemble: true}
	sweep, c, err := tracedSample(runners["ctl-sweep"], e.procs)
	ck.check("ctl-sweep fetched = re-assembled = in-process", err)
	if err != nil && !errors.Is(err, errMismatch) {
		return result{}, err
	}
	m := sweep.api.metrics()
	m["wall_s"] = c.wall.Seconds()
	m["ctl.submit_ms"] = float64(sweep.ctl.submit) / float64(time.Millisecond)
	m["ctl.artifact_ms"] = float64(sweep.ctl.artifact) / float64(time.Millisecond)
	for k, v := range sweep.store {
		m[k] = v
	}
	byWorkload["ctl-sweep"] = m

	search, err := searchLayers(e.o, traces["table1-direct"].cells.values, ck)
	if err != nil {
		return result{}, err
	}
	runs, err := runLayers(e.o, traces["table4-direct"].cells.values, ck)
	if err != nil {
		return result{}, err
	}

	// Tracing overhead: one more untraced sample of the named workload.
	plain, err := runners[name].sample(nil)
	ck.check(name+" untraced sample", err)
	if err != nil && !errors.Is(err, errMismatch) {
		return result{}, err
	}
	overhead := (byWorkload[name]["wall_s"] - plain.wall.Seconds()) / plain.wall.Seconds()

	coreFrom, ctlFrom := name, name
	if name == "ctl-sweep" {
		coreFrom = "table1-direct"
	}
	if name != "table1-ctl" && name != "ctl-sweep" {
		ctlFrom = "ctl-sweep"
	}
	out := map[string]metric{"trace.overhead_frac": {overhead, "frac"}}
	for _, l := range perLayer {
		src := map[string]float64{}
		switch {
		case l.group == "core" || l.group == "par":
			src = byWorkload[coreFrom]
		case l.group == "ctl":
			src = byWorkload[ctlFrom]
		case l.group == "store" || l.group == "compare":
			src = byWorkload["ctl-sweep"]
		case l.group == "driver":
			src = search
			if _, ok := runs[l.name]; ok {
				src = runs
			}
		case l.group == "cpu_share":
			src = map[string]float64{l.name: shares[l.name[len("cpu_share."):]]}
		}
		if v, ok := src[l.name]; ok {
			out[l.name] = metric{v, l.unit}
		}
	}
	for _, l := range perLayer {
		if _, ok := out[l.name]; !ok {
			return result{}, fmt.Errorf("traced suite produced no %s", l.name)
		}
	}

	fmt.Fprintf(stdout, "traced suite, seed %d, GOMAXPROCS=%d; per-layer metrics reported for %s\n", e.o.Seed, e.procs, name)
	printLayers(stdout, "core/par by workload (traced, nproc):", layerNames("core", "par"), byWorkload)
	printLayers(stdout, "ctl by workload (traced):", layerNames("ctl"), byWorkload)
	fmt.Fprint(stdout, shareTable(shares))
	printLayers(stdout, "driver (serial calls per deployment):", layerNames("driver"), map[string]map[string]float64{"table1": search, "table4": runs})
	fmt.Fprintf(stdout, "checks: %d attempted, %d failed\n", ck.attempted, ck.failed)
	return result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: out}, nil
}

// layer is one per-layer metric as BENCHMARK.json lists it.
type layer struct{ group, name, unit string }

var perLayer = []layer{
	{"core", "core.cell_s.p50", "s"},
	{"core", "core.cell_s.max", "s"},
	{"core", "core.encode_ms", "ms"},
	{"core", "core.assemble_ms", "ms"},
	{"par", "par.busy_frac", "frac"},
	{"par", "par.max_inflight", "count"},
	{"par", "par.speedup", "x"},
	{"driver", "driver.probes", "count"},
	{"driver", "driver.speculative", "count"},
	{"driver", "driver.spec_useful_ratio", "ratio"},
	{"driver", "driver.search_s", "s"},
	{"driver", "driver.run_s", "s"},
	{"driver", "driver.sim_mev_per_cpu_s", "Mev/cpu_s"},
	{"driver", "driver.queue_depth_max", "events"},
	{"driver", "driver.late_dropped", "count"},
	{"cpu_share", "cpu_share.generator", "frac"},
	{"cpu_share", "cpu_share.queue", "frac"},
	{"cpu_share", "cpu_share.engine", "frac"},
	{"cpu_share", "cpu_share.window", "frac"},
	{"cpu_share", "cpu_share.flat", "frac"},
	{"cpu_share", "cpu_share.sim", "frac"},
	{"cpu_share", "cpu_share.metrics", "frac"},
	{"cpu_share", "cpu_share.math", "frac"},
	{"cpu_share", "cpu_share.runtime", "frac"},
	{"cpu_share", "cpu_share.other", "frac"},
	{"ctl", "ctl.lease_ms.p50", "ms"},
	{"ctl", "ctl.lease_ms.p99", "ms"},
	{"ctl", "ctl.complete_ms.p50", "ms"},
	{"ctl", "ctl.complete_ms.p99", "ms"},
	{"ctl", "ctl.lease_hit_ratio", "ratio"},
	{"ctl", "ctl.heartbeat_calls", "count"},
	{"ctl", "ctl.submit_ms", "ms"},
	{"ctl", "ctl.artifact_ms", "ms"},
	{"store", "store.put_object_ms", "ms"},
	{"store", "store.save_run_ms", "ms"},
	{"store", "store.bytes", "B"},
	{"store", "store.journal_bytes", "B"},
	{"compare", "compare.assemble_run_ms", "ms"},
	{"trace", "trace.overhead_frac", "frac"},
}

func layerNames(groups ...string) []string {
	var out []string
	for _, l := range perLayer {
		for _, g := range groups {
			if l.group == g {
				out = append(out, l.name)
			}
		}
	}
	sort.Strings(out)
	return out
}
