package main

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ctl"
)

// fakeAPI hands out a task on every other lease call and fails Complete
// for one lease ID.
type fakeAPI struct {
	mu    sync.Mutex
	calls int
}

var errFake = errors.New("fake complete error")

func (f *fakeAPI) Register(name string) (string, error) { return "agent-" + name, nil }
func (f *fakeAPI) Heartbeat(string) error               { return nil }
func (f *fakeAPI) Lease(agentID string) (*ctl.LeaseTask, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls%2 == 0 {
		return nil, nil
	}
	time.Sleep(time.Millisecond)
	return &ctl.LeaseTask{LeaseID: fmt.Sprintf("lease-%d", f.calls)}, nil
}
func (f *fakeAPI) Complete(leaseID string, _ []byte) error {
	if leaseID == "bad" {
		return errFake
	}
	return nil
}
func (f *fakeAPI) Fail(string, string) error { return nil }

func TestTimedAPIRecordsEveryCall(t *testing.T) {
	rec := &apiRecorder{}
	var api ctl.AgentAPI = timedAPI{api: &fakeAPI{}, rec: rec}
	if id, err := api.Register("x"); err != nil || id != "agent-x" {
		t.Fatalf("Register passed through %q, %v", id, err)
	}
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				task, err := api.Lease("a")
				if err != nil {
					t.Error(err)
					return
				}
				if task != nil {
					if err := api.Complete(task.LeaseID, nil); err != nil {
						t.Error(err)
					}
				}
				if err := api.Heartbeat("a"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := api.Complete("bad", nil); !errors.Is(err, errFake) {
		t.Errorf("Complete error not passed through: %v", err)
	}
	if err := api.Fail("l", "why"); err != nil {
		t.Errorf("Fail: %v", err)
	}

	m := rec.metrics()
	if n := len(rec.lease); n != workers*rounds {
		t.Errorf("timed %d lease calls, want %d", n, workers*rounds)
	}
	if n := len(rec.complete); n != workers*rounds/2+1 {
		t.Errorf("timed %d complete calls, want %d", n, workers*rounds/2+1)
	}
	if got := m["ctl.lease_hit_ratio"]; got != 0.5 {
		t.Errorf("lease_hit_ratio = %v, want 0.5", got)
	}
	if got := m["ctl.heartbeat_calls"]; got != workers*rounds {
		t.Errorf("heartbeat_calls = %v, want %d", got, workers*rounds)
	}
	// Half the lease calls sleep 1ms inside the wrapped API, so the p99
	// must see it; the p50 sits between the fast and slow halves.
	if got := m["ctl.lease_ms.p99"]; got < 1 {
		t.Errorf("lease_ms.p99 = %v, want >= 1ms", got)
	}
	for _, k := range []string{"ctl.lease_ms.p50", "ctl.complete_ms.p50", "ctl.complete_ms.p99"} {
		if v, ok := m[k]; !ok || v < 0 {
			t.Errorf("%s = %v, %v", k, v, ok)
		}
	}
}
