package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Replication aggregates one experiment's headline metrics over several
// independent seeds, quantifying the run-to-run spread that Definition 5's
// fluctuation tolerance (and the transient-episode sampling) introduces.
// EXPERIMENTS.md's "search noise" caveat is made measurable here.
type Replication struct {
	ID    string
	Seeds []uint64
	// Stats maps each metric key to its cross-seed statistics.
	Stats map[string]ReplicaStat
}

// ReplicaStat is one metric's cross-seed distribution.
type ReplicaStat struct {
	Mean, Min, Max, Stddev float64
	N                      int
}

// RelSpread returns (max-min)/mean, the headline noise figure.
func (s ReplicaStat) RelSpread() float64 {
	if s.Mean == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Mean
}

// replicaSeeds derives the per-replica seeds from the base seed
// (base, base+7919, ...).
func replicaSeeds(base uint64, runs int) []uint64 {
	seeds := make([]uint64, runs)
	for i := range seeds {
		seeds[i] = base + uint64(i)*7919
	}
	return seeds
}

// Replicated wraps an experiment so that it runs once per derived seed,
// exposing one cell per (seed, base cell).  That granularity is what lets
// the distributed controller schedule a replicated run across agents: every
// seed's every cell is an independently leasable unit.  Assembly folds the
// per-seed artefacts into the cross-seed Replication and renders its table.
func Replicated(base Experiment, runs int) Experiment {
	if runs <= 0 {
		runs = 3
	}
	return Experiment{
		ID:          base.ID,
		Title:       base.Title,
		Description: base.Description,
		Cells: func(o Options) []Cell {
			o = o.WithDefaults()
			var out []Cell
			for _, seed := range replicaSeeds(o.Seed, runs) {
				seed := seed
				so := o
				so.Seed = seed
				for _, c := range base.Cells(so) {
					c := c
					out = append(out, Cell{
						ID: fmt.Sprintf("seed%d/%s", seed, c.ID),
						// The base cell's content key was derived for the
						// replica's seed (Cells saw so), so it addresses
						// this replica's result exactly.
						Key: c.Key,
						Run: func(ctx context.Context, o Options) (any, error) {
							o.Seed = seed
							return c.Run(ctx, o)
						},
					})
				}
			}
			return out
		},
		Assemble: func(o Options, raws [][]byte) (*Outcome, error) {
			rep, err := replicationFromRaws(base, o, runs, raws)
			if err != nil {
				return nil, err
			}
			return &Outcome{Text: rep.Text(), Metrics: rep.Metrics()}, nil
		},
	}
}

// replicationFromRaws assembles each seed's slice of canonical cell results
// with the base experiment's Assemble and aggregates the per-seed metrics.
func replicationFromRaws(base Experiment, o Options, runs int, raws [][]byte) (*Replication, error) {
	o = o.WithDefaults()
	if runs <= 0 || len(raws)%runs != 0 {
		return nil, fmt.Errorf("core: %s: %d cell results do not split into %d replicas", base.ID, len(raws), runs)
	}
	n := len(raws) / runs
	rep := &Replication{ID: base.ID, Stats: map[string]ReplicaStat{}}
	samples := map[string][]float64{}
	for i, seed := range replicaSeeds(o.Seed, runs) {
		so := o
		so.Seed = seed
		out, err := base.Assemble(so, raws[i*n:(i+1)*n])
		if err != nil {
			return nil, fmt.Errorf("core: replicate %s seed %d: %w", base.ID, seed, err)
		}
		rep.Seeds = append(rep.Seeds, seed)
		for k, v := range out.Metrics {
			samples[k] = append(samples[k], v)
		}
	}
	for k, vs := range samples {
		rep.Stats[k] = summarize(vs)
	}
	return rep, nil
}

func summarize(vs []float64) ReplicaStat {
	s := ReplicaStat{N: len(vs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumSq float64
	for _, v := range vs {
		sum += v
		sumSq += v * v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vs))
	if len(vs) > 1 {
		variance := sumSq/float64(len(vs)) - s.Mean*s.Mean
		if variance > 0 {
			s.Stddev = math.Sqrt(variance)
		}
	}
	return s
}

// Metrics flattens the cross-seed statistics into artefact metrics
// ("<key>/mean", "/min", "/max", "/stddev", "/spread") so replicated runs
// carry their aggregate through the same Outcome/Artifact envelope as
// single runs.
func (r *Replication) Metrics() map[string]float64 {
	out := map[string]float64{"replicas": float64(len(r.Seeds))}
	for k, s := range r.Stats {
		out[k+"/mean"] = s.Mean
		out[k+"/min"] = s.Min
		out[k+"/max"] = s.Max
		out[k+"/stddev"] = s.Stddev
		out[k+"/spread"] = s.RelSpread()
	}
	return out
}

// Text renders the replication as a table sorted by metric key.
func (r *Replication) Text() string {
	var keys []string
	for k := range r.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s over %d seeds %v\n", r.ID, len(r.Seeds), r.Seeds)
	fmt.Fprintf(&b, "%-36s %12s %12s %12s %8s\n", "metric", "mean", "min", "max", "spread")
	for _, k := range keys {
		s := r.Stats[k]
		fmt.Fprintf(&b, "%-36s %12.4g %12.4g %12.4g %7.1f%%\n",
			k, s.Mean, s.Min, s.Max, 100*s.RelSpread())
	}
	return b.String()
}
