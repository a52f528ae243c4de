// Command sdpsreport renders the paper-versus-measured markdown report —
// the generator behind EXPERIMENTS.md — and compares run artifacts.
//
// Three modes:
//
//	sdpsreport -scale full -o EXPERIMENTS.md
//	    Run the suite in-process and render the report (the classical path).
//
//	sdpsreport -from <data-dir|url>[/<run-id>] [-o FILE]
//	    Render the same report from completed coordinator runs without
//	    executing anything: cell results are fetched from the run store and
//	    re-assembled.  With a pinned run ID the report covers that run's
//	    experiment only; with a whole store, experiments that have no
//	    completed run at the requested seed/scale fall back to direct
//	    execution (noted on stderr).
//
//	sdpsreport compare [-gate thresholds.json] [-o FILE] <runA> <runB>
//	    Side-by-side comparison of two artifacts.  Either side may be a
//	    committed BENCH_*.json baseline, an `sdpsbench -json` artifact
//	    file, <data-dir>/<run-id>, or http(s)://coordinator/<run-id>.
//	    With -gate, exits 1 when a deviation breaches its tolerance.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	// Registers the paper's experiments declared as scenario specs.
	_ "repro/internal/scenario"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		runCompare(os.Args[2:])
		return
	}
	runReport(os.Args[1:])
}

func runReport(argv []string) {
	fs := flag.NewFlagSet("sdpsreport", flag.ExitOnError)
	var (
		scale = fs.String("scale", "full", "fidelity: quick | full")
		seed  = fs.Uint64("seed", 42, "simulation seed")
		out   = fs.String("o", "", "output file (default stdout)")
		from  = fs.String("from", "", "render from a coordinator data dir or URL, optionally /<run-id>; no experiments execute")
		only  = fs.String("only", "", "comma-separated experiment IDs to restrict the report to")
		date  = fs.String("date", "", "footer date, YYYY-MM-DD (default today; set for reproducible bytes)")
	)
	fs.Parse(argv)
	if fs.NArg() > 0 {
		fatalf("unexpected argument %q (did you mean `sdpsreport compare`?)", fs.Arg(0))
	}

	if *date == "" {
		*date = time.Now().UTC().Format("2006-01-02")
	}
	opts := compare.SuiteOptions{Scale: *scale, Seed: *seed, Date: *date}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				opts.Only = append(opts.Only, id)
			}
		}
	}

	var text string
	var err error
	if *from != "" {
		text, err = reportFrom(*from, opts)
	} else {
		coreOpts := core.Options{Seed: *seed}
		if *scale == "full" {
			coreOpts.Scale = core.Full
		}
		text, err = compare.RenderSuite(loggedDirect(coreOpts), opts)
	}
	if err != nil {
		fatalf("%v", err)
	}
	emit(*out, text, "report")
}

// loggedDirect is the in-process getter with the classical progress lines.
func loggedDirect(o core.Options) compare.Getter {
	direct := compare.DirectGetter(o)
	return func(id string) (core.Artifact, error) {
		fmt.Fprintf(os.Stderr, "running %s...\n", id)
		return direct(id)
	}
}

// reportFrom renders from stored runs.  A pinned run ID restricts the
// report to that run; a whole store renders the full suite (or -only),
// falling back to direct execution per missing experiment.
func reportFrom(ref string, opts compare.SuiteOptions) (string, error) {
	src, runID, err := compare.ParseRef(ref)
	if err != nil {
		return "", err
	}
	if runID != "" {
		return compare.RenderRunReport(src, runID, opts.Date)
	}
	coreOpts := core.Options{Seed: opts.Seed}
	if opts.Scale == "full" {
		coreOpts.Scale = core.Full
	}
	get := compare.FallbackGetter(
		func(id string) (core.Artifact, error) {
			a, err := compare.StoreGetter(src, opts.Seed, opts.Scale)(id)
			if err == nil {
				fmt.Fprintf(os.Stderr, "loaded %s from %s\n", id, ref)
			}
			return a, err
		},
		loggedDirect(coreOpts),
		func(id string, err error) {
			fmt.Fprintf(os.Stderr, "no stored run for %s; falling back to direct execution\n", id)
		},
	)
	return compare.RenderSuite(get, opts)
}

func runCompare(argv []string) {
	fs := flag.NewFlagSet("sdpsreport compare", flag.ExitOnError)
	var (
		out   = fs.String("o", "", "output file (default stdout)")
		gate  = fs.String("gate", "", "thresholds.json; exit 1 when a deviation breaches its tolerance")
		coord = fs.String("coord", "", "coordinator URL for bare run-id arguments")
	)
	fs.Parse(argv)
	if fs.NArg() != 2 {
		fatalf("compare needs exactly two references (baseline, candidate); got %d", fs.NArg())
	}

	a, err := compare.Load(fs.Arg(0), *coord)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := compare.Load(fs.Arg(1), *coord)
	if err != nil {
		fatalf("%v", err)
	}
	c := compare.Align(a, b)
	emit(*out, compare.Render(c), "comparison")

	if *gate != "" {
		t, err := compare.LoadThresholds(*gate)
		if err != nil {
			fatalf("%v", err)
		}
		vs := t.Check(c)
		fmt.Fprint(os.Stderr, compare.RenderViolations(vs))
		if len(vs) > 0 {
			os.Exit(1)
		}
	}
}

// emit writes text to stdout or, atomically (temp file + rename), to a file.
func emit(out, text, what string) {
	if out == "" {
		fmt.Print(text)
		return
	}
	dir := filepath.Dir(out)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(out)+".tmp-*")
	if err != nil {
		fatalf("write %s: %v", out, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.WriteString(text); err != nil {
		tmp.Close()
		fatalf("write %s: %v", out, err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		fatalf("write %s: %v", out, err)
	}
	if err := tmp.Close(); err != nil {
		fatalf("write %s: %v", out, err)
	}
	if err := os.Rename(tmp.Name(), out); err != nil {
		fatalf("write %s: %v", out, err)
	}
	fmt.Fprintf(os.Stderr, "%s written to %s\n", what, out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdpsreport: "+format+"\n", args...)
	os.Exit(1)
}
