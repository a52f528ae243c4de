package ctl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// refusingAPI is an AgentAPI whose Complete always returns completeErr;
// it records every Fail reason.
type refusingAPI struct {
	completeErr error

	mu    sync.Mutex
	fails []string
}

func (f *refusingAPI) Register(name string) (string, error)     { return "agent-0001", nil }
func (f *refusingAPI) Heartbeat(agentID string) error           { return nil }
func (f *refusingAPI) Lease(agentID string) (*LeaseTask, error) { return nil, nil }
func (f *refusingAPI) Complete(leaseID string, result []byte) error {
	return f.completeErr
}

func (f *refusingAPI) Fail(leaseID string, reason string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fails = append(f.fails, reason)
	return nil
}

// TestAgentFailsRefusedComplete: a Complete the coordinator refuses is
// reported back as a Fail carrying the refusal, so the cell re-queues
// without waiting out its lease; a stale lease is not reported.
func TestAgentFailsRefusedComplete(t *testing.T) {
	exp := testExperiment("synth", 1, nil)
	task := &LeaseTask{
		LeaseID: "lease-0001",
		RunID:   "run-0001",
		Spec:    RunSpec{Experiment: "synth"},
		CellID:  "c00",
		TTL:     time.Second,
	}
	refused := errors.New("ctl: append journal: disk full")
	for _, tc := range []struct {
		name string
		err  error
		want []string
	}{
		{"refused", refused, []string{"complete refused: " + refused.Error()}},
		{"stale", fmt.Errorf("complete lease-0001: %w", ErrStaleLease), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			api := &refusingAPI{completeErr: tc.err}
			a := &Agent{API: api, Resolve: resolverFor(exp)}
			a.execute(context.Background(), "agent-0001", task, task.TTL)
			api.mu.Lock()
			defer api.mu.Unlock()
			if fmt.Sprint(api.fails) != fmt.Sprint(tc.want) {
				t.Fatalf("Fail calls %q, want %q", api.fails, tc.want)
			}
		})
	}
}
