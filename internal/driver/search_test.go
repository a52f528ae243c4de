package driver

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine/flink"
	"repro/internal/workload"
)

func searchBase() Config {
	return Config{
		Seed: 42, Workers: 4, Query: workload.Default(workload.Aggregation),
		EventsPerTuple: 400,
	}
}

func searchCfg() SearchConfig {
	return SearchConfig{Lo: 0.1e6, Hi: 1.6e6, Resolution: 0.05, ProbeRunFor: 75 * time.Second}
}

// TestSpeculativeSearchBitIdenticalToSequential is the determinism pin of
// DESIGN-PERF.md §6: the speculative search must return a bit-identical
// rate and Result to the strictly sequential bisection, at GOMAXPROCS=1
// and on a parallel budget.
func TestSpeculativeSearchBitIdenticalToSequential(t *testing.T) {
	var seqStats SearchStats
	seq := searchCfg()
	seq.Speculate = 1
	seq.Stats = &seqStats
	seqRate, seqRes, err := FindSustainable(flink.New(flink.Options{}), searchBase(), seq)
	if err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		var specStats SearchStats
		spec := searchCfg()
		spec.Speculate = 7
		spec.Stats = &specStats
		rate, res, err := FindSustainable(flink.New(flink.Options{}), searchBase(), spec)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if rate != seqRate {
			t.Fatalf("GOMAXPROCS=%d: speculative rate %v != sequential %v", procs, rate, seqRate)
		}
		if !reflect.DeepEqual(res, seqRes) {
			t.Fatalf("GOMAXPROCS=%d: speculative Result differs from sequential", procs)
		}
		if specStats.Probes != seqStats.Probes {
			t.Fatalf("GOMAXPROCS=%d: consumed %d probes, sequential consumed %d",
				procs, specStats.Probes, seqStats.Probes)
		}
		if procs > 1 && specStats.Speculative <= specStats.Probes {
			t.Fatalf("GOMAXPROCS=%d: no speculation happened (%d launched, %d consumed)",
				procs, specStats.Speculative, specStats.Probes)
		}
		if procs == 1 && specStats.Speculative != specStats.Probes {
			t.Fatalf("GOMAXPROCS=1 must degenerate to sequential probing: %d launched, %d consumed",
				specStats.Speculative, specStats.Probes)
		}
	}
}

// BenchmarkFindSustainableQuick is the headline microbenchmark of one
// quick-scale sustainable-throughput search (the unit Table I runs nine
// of).  Speculation follows the spare worker budget, so single-core runs
// measure the sequential path.
func BenchmarkFindSustainableQuick(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := FindSustainable(flink.New(flink.Options{}), searchBase(), searchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}
