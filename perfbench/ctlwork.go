package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/metrics"
)

// timedAPI decorates a ctl.AgentAPI, timing every call at its boundary.
// It is how the traced run sees the lease/complete round trip from the
// agent's side without touching the control plane's code.
type timedAPI struct {
	api ctl.AgentAPI
	rec *apiRecorder
}

// apiRecorder accumulates what timedAPI saw.  Agents call through it from
// several goroutines at once.
type apiRecorder struct {
	mu         sync.Mutex
	lease      []time.Duration
	complete   []time.Duration
	leaseHits  int
	heartbeats int
}

func (t timedAPI) Register(name string) (string, error) { return t.api.Register(name) }

func (t timedAPI) Heartbeat(agentID string) error {
	err := t.api.Heartbeat(agentID)
	t.rec.mu.Lock()
	t.rec.heartbeats++
	t.rec.mu.Unlock()
	return err
}

func (t timedAPI) Lease(agentID string) (*ctl.LeaseTask, error) {
	start := time.Now()
	task, err := t.api.Lease(agentID)
	d := time.Since(start)
	t.rec.mu.Lock()
	t.rec.lease = append(t.rec.lease, d)
	if task != nil {
		t.rec.leaseHits++
	}
	t.rec.mu.Unlock()
	return task, err
}

func (t timedAPI) Complete(leaseID string, result []byte) error {
	start := time.Now()
	err := t.api.Complete(leaseID, result)
	d := time.Since(start)
	t.rec.mu.Lock()
	t.rec.complete = append(t.rec.complete, d)
	t.rec.mu.Unlock()
	return err
}

func (t timedAPI) Fail(leaseID string, reason string) error { return t.api.Fail(leaseID, reason) }

// metrics returns the recorder's per-layer figures.
func (r *apiRecorder) metrics() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	lease, complete := millis(r.lease), millis(r.complete)
	hit := 0.0
	if len(r.lease) > 0 {
		hit = float64(r.leaseHits) / float64(len(r.lease))
	}
	return map[string]float64{
		"ctl.lease_ms.p50":    percentile(lease, 0.50),
		"ctl.lease_ms.p99":    percentile(lease, 0.99),
		"ctl.complete_ms.p50": percentile(complete, 0.50),
		"ctl.complete_ms.p99": percentile(complete, 0.99),
		"ctl.lease_hit_ratio": hit,
		"ctl.heartbeat_calls": float64(r.heartbeats),
	}
}

// deployment is one coordinator with its store, HTTP listener and agents,
// all in this process and talking over loopback HTTP.
type deployment struct {
	dir    string
	coord  *ctl.Coordinator
	srv    *http.Server
	client *ctl.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// agentPoll is the agents' idle re-poll interval.  The ctl default (50ms)
// would add up to one interval of idle time to every submission, which is
// noise at the scale of a table1 run.
const agentPoll = 10 * time.Millisecond

// deploy starts a fresh deployment under parent and returns once all
// agents have registered.  wrap, when non-nil, decorates each agent's API;
// resolve, when non-nil, replaces core.Lookup for the coordinator and the
// agents.  The result cache stays off so every cell executes.
func deploy(parent string, agents int, wrap func(ctl.AgentAPI) ctl.AgentAPI, resolve func(string) (core.Experiment, error)) (d *deployment, err error) {
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	store, err := ctl.NewStore(dir)
	if err != nil {
		return d, err
	}
	d.coord, err = ctl.NewCoordinator(store, ctl.CoordinatorOptions{Resolve: resolve})
	if err != nil {
		return d, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, fmt.Errorf("deploy: %w", err)
	}
	d.srv = &http.Server{Handler: ctl.NewHandler(d.coord)}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	d.coord.Start(ctx)
	url := "http://" + ln.Addr().String()
	d.client = ctl.NewClient(url)
	registered := make(chan struct{}, agents) // one send per agent, never blocks
	for i := 0; i < agents; i++ {
		var api ctl.AgentAPI = ctl.NewClient(url)
		if wrap != nil {
			api = wrap(api)
		}
		api = notifyRegister{AgentAPI: api, done: registered}
		a := &ctl.Agent{Name: fmt.Sprintf("bench-%d", i), API: api, Poll: agentPoll, Resolve: resolve}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			_ = a.Run(ctx) // returns nil once ctx is cancelled
		}()
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < agents; i++ {
		select {
		case <-registered:
		case <-timeout:
			return d, errors.New("deploy: agents did not register within 30s")
		}
	}
	return d, nil
}

// notifyRegister signals done after each successful Register, so deploy
// returns the moment the last agent is known to the coordinator.
type notifyRegister struct {
	ctl.AgentAPI
	done chan<- struct{}
}

func (n notifyRegister) Register(name string) (string, error) {
	id, err := n.AgentAPI.Register(name)
	if err == nil {
		select {
		case n.done <- struct{}{}:
		default: // a re-registration after the deployment is up
		}
	}
	return id, err
}

// close stops the agents and the server, waits for them, and removes the
// store.
func (d *deployment) close() {
	if d.cancel != nil {
		d.cancel()
	}
	if d.srv != nil {
		_ = d.srv.Close() // nothing to report: the deployment is being discarded
	}
	d.wg.Wait()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	_ = os.RemoveAll(d.dir) // best effort; the run directory is removed at exit too
}

// ctlTimes are the client-side call times of one ctl sample.
type ctlTimes struct {
	submit, artifact time.Duration
	runID            string
}

// runOnce submits spec through the HTTP client, waits for the run to end,
// and fetches its artifact over HTTP.
func (d *deployment) runOnce(spec ctl.RunSpec) ([]byte, ctlTimes, error) {
	var t ctlTimes
	events, unsubscribe := d.coord.Subscribe("")
	defer unsubscribe()
	start := time.Now()
	info, err := d.client.Submit(spec)
	t.submit = time.Since(start)
	if err != nil {
		return nil, t, fmt.Errorf("submit: %w", err)
	}
	t.runID = info.ID
	timeout := time.After(60 * time.Second)
	for done := false; !done; {
		select {
		case ev, ok := <-events:
			if !ok {
				return nil, t, errors.New("event stream closed")
			}
			if ev.RunID != info.ID || ev.Type != "run" || !ev.Status.Terminal() {
				continue
			}
			if ev.Status != ctl.RunDone {
				return nil, t, fmt.Errorf("run %s ended %s: %s", info.ID, ev.Status, ev.Error)
			}
			done = true
		case <-timeout:
			return nil, t, fmt.Errorf("run %s did not finish within 60s", info.ID)
		}
	}
	start = time.Now()
	data, err := d.client.Artifact(info.ID)
	t.artifact = time.Since(start)
	if err != nil {
		return nil, t, fmt.Errorf("fetch artifact: %w", err)
	}
	return data, t, nil
}

// The synthetic sweep experiment: many cells that run no simulation, each
// returning a fixed latency-cell-shaped result, so a ctl run of it
// exercises only the control plane (lease, journal, object store,
// manifest saves, assembly).
const (
	sweepID    = "perfbench-sweep"
	sweepCells = 1000
)

// sweepResult has the shape and size of a real Table II/IV latency cell.
type sweepResult struct {
	Engine  string
	Workers int
	Pct     int
	Summary metrics.Summary
}

// splitmix64 derives the synthetic results from the seed and cell index.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func sweepValue(seed uint64, i int) sweepResult {
	h := splitmix64(seed ^ uint64(i)*0x100000001b3)
	ms := func(shift uint) time.Duration { return time.Duration(1+(h>>shift)%9000) * time.Millisecond }
	lo, hi := ms(0), ms(13)
	if lo > hi {
		lo, hi = hi, lo
	}
	return sweepResult{
		Engine:  []string{"storm", "spark", "flink"}[i%3],
		Workers: []int{2, 4, 8}[(i/3)%3],
		Pct:     []int{100, 90}[(i/9)%2],
		Summary: metrics.Summary{
			Count: 1 + h%100000, Avg: (lo + hi) / 2, Min: lo, Max: hi,
			P90: hi - (hi-lo)/10, P95: hi - (hi-lo)/20, P99: hi - (hi-lo)/100,
		},
	}
}

func sweepExperiment() core.Experiment {
	return core.Experiment{
		ID:          sweepID,
		Title:       "Synthetic control-plane sweep",
		Description: fmt.Sprintf("%d cells that run no simulation; benchmark fixture for the control plane.", sweepCells),
		Cells: func(o core.Options) []core.Cell {
			cells := make([]core.Cell, sweepCells)
			for i := range cells {
				i := i
				cells[i] = core.Cell{
					ID: fmt.Sprintf("cell-%04d", i),
					Run: func(_ context.Context, o core.Options) (any, error) {
						return sweepValue(o.Seed, i), nil
					},
				}
			}
			return cells
		},
		Assemble: func(o core.Options, raws [][]byte) (*core.Outcome, error) {
			if len(raws) != sweepCells {
				return nil, fmt.Errorf("sweep: %d results, want %d", len(raws), sweepCells)
			}
			var count uint64
			var avg, worst time.Duration
			for i, raw := range raws {
				var r sweepResult
				if err := json.Unmarshal(raw, &r); err != nil {
					return nil, fmt.Errorf("sweep: cell %d: %w", i, err)
				}
				count += r.Summary.Count
				avg += r.Summary.Avg / sweepCells
				worst = max(worst, r.Summary.P99)
			}
			return &core.Outcome{
				Text: fmt.Sprintf("Synthetic sweep: %d cells, %d events, mean avg %v, worst p99 %v\n", len(raws), count, avg, worst),
				Metrics: map[string]float64{
					"cells": float64(len(raws)), "events": float64(count),
					"mean_avg_s": avg.Seconds(), "worst_p99_s": worst.Seconds(),
				},
			}, nil
		},
	}
}

// ctlRunner runs one spec through a fresh deployment per sample.
type ctlRunner struct {
	env  *env
	spec ctl.RunSpec
	ref  []byte
	// reassemble also re-assembles the run from the store with
	// compare.AssembleRun and requires those bytes to match too.
	reassemble bool
}

func (r *ctlRunner) setup() (time.Duration, error) {
	start := time.Now()
	d, err := deploy(r.env.dir, r.env.procs, nil, nil)
	setup := time.Since(start)
	if err != nil {
		return 0, err
	}
	d.close()
	return setup, nil
}

func (r *ctlRunner) sample(tr *trace) (cost, error) {
	runtime.GC()
	var wrap func(ctl.AgentAPI) ctl.AgentAPI
	var resolve func(string) (core.Experiment, error)
	if tr != nil {
		wrap = func(api ctl.AgentAPI) ctl.AgentAPI { return timedAPI{api: api, rec: &tr.api} }
		resolve = tr.cells.resolver()
	}
	d, err := deploy(r.env.dir, r.env.procs, wrap, resolve)
	if err != nil {
		return cost{}, err
	}
	defer d.close()
	m := startMeter()
	data, times, err := d.runOnce(r.spec)
	if err != nil {
		return cost{}, err
	}
	var mismatch error
	if !bytes.Equal(data, r.ref) {
		mismatch = fmt.Errorf("%s over ctl: %w", r.spec.Experiment, errMismatch)
	}
	if r.reassemble {
		start := time.Now()
		again, err := reassemble(d.dir, times.runID)
		if err != nil {
			return cost{}, err
		}
		if tr != nil {
			tr.assembleRun = time.Since(start)
		}
		if mismatch == nil && !bytes.Equal(again, r.ref) {
			mismatch = fmt.Errorf("%s re-assembled from the store: %w", r.spec.Experiment, errMismatch)
		}
	}
	c := m.stop()
	if tr != nil {
		tr.ctl = times
		tr.artifact = data
		if r.reassemble {
			if err := tr.measureStore(d); err != nil {
				return c, err
			}
		}
	}
	return c, mismatch
}

// reassemble rebuilds a finished run's artifact from the store directory
// with compare.AssembleRun, executing nothing.
func reassemble(dir, runID string) ([]byte, error) {
	src, err := compare.OpenStoreDir(dir)
	if err != nil {
		return nil, err
	}
	a, _, err := compare.AssembleRun(src, runID)
	if err != nil {
		return nil, err
	}
	return a.Encode()
}
