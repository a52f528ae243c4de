package fault

import (
	"strings"
	"testing"
	"time"
)

// budget is the fault-scaled share of a 100-tuple budget under instant
// recovery.
func budget(s *Schedule, now time.Duration, workers int) int {
	n, _ := s.Scale(100, now, workers, Recovery{}, nil)
	return n
}

func TestNilAndEmptyScheduleAreFaultFree(t *testing.T) {
	var s *Schedule
	if got := budget(s, 10*time.Second, 4); got != 100 {
		t.Fatalf("nil schedule Scale = %d, want 100", got)
	}
	if got := s.Factors(10*time.Second, 4, Recovery{}, nil); len(got) != 4 || got[0] != 1 || got[3] != 1 {
		t.Fatalf("nil schedule Factors = %v, want all ones", got)
	}
	if !s.Empty() {
		t.Fatal("nil schedule should be Empty")
	}
	if err := s.Validate(4); err != nil {
		t.Fatalf("nil schedule Validate: %v", err)
	}
	empty := &Schedule{}
	if got := budget(empty, 10*time.Second, 4); got != 100 {
		t.Fatalf("empty schedule Scale = %d, want 100", got)
	}
}

func TestKillWorkerWindow(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 1, At: 30 * time.Second, RestartAfter: 10 * time.Second},
	}}
	if err := s.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cases := []struct {
		now  time.Duration
		want int
	}{
		{29 * time.Second, 100},
		{30 * time.Second, 75}, // inclusive start
		{39 * time.Second, 75},
		{40 * time.Second, 100}, // exclusive end
	}
	for _, c := range cases {
		if got := budget(s, c.now, 4); got != c.want {
			t.Errorf("Scale(100, %v, 4) = %d, want %d", c.now, got, c.want)
		}
	}
	if got := s.Factors(35*time.Second, 4, Recovery{}, nil); got[1] != 0 || got[0] != 1 {
		t.Fatalf("Factors during outage = %v, want worker 1 down", got)
	}
}

func TestKillWithoutRestartLastsForever(t *testing.T) {
	s := &Schedule{Events: []Event{{Kind: KindKillWorker, Worker: 0, At: time.Second}}}
	if got := budget(s, time.Hour, 2); got != 50 {
		t.Fatalf("Scale after permanent kill = %d, want 50", got)
	}
	if got := s.Events[0].End(90 * time.Second); got != 90*time.Second {
		t.Fatalf("End of permanent kill = %v, want run end", got)
	}
}

func TestStallWindowAndFactor(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindStall, At: 10 * time.Second, For: 5 * time.Second, Factor: 0.25},
	}}
	if err := s.Validate(0); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := budget(s, 12*time.Second, 4); got != 25 {
		t.Fatalf("Scale during stall = %d, want 25", got)
	}
	if got := budget(s, 15*time.Second, 4); got != 100 {
		t.Fatalf("Scale after stall = %d, want 100", got)
	}
	// A stall is cluster-wide: it stays out of the per-worker vector.
	for w, f := range s.Factors(12*time.Second, 4, Recovery{}, nil) {
		if f != 1 {
			t.Fatalf("worker %d factor during stall = %v, want 1", w, f)
		}
	}
	if got := s.Events[0].End(0); got != 15*time.Second {
		t.Fatalf("End of stall = %v, want 15s", got)
	}
	// Factor 0 (the default) is a complete stall.
	zero := &Schedule{Events: []Event{{Kind: KindStall, At: 0, For: time.Second}}}
	if got := budget(zero, 500*time.Millisecond, 4); got != 0 {
		t.Fatalf("Scale during complete stall = %d, want 0", got)
	}
}

func TestOverlappingFaultsCompose(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 0, At: 0, RestartAfter: 20 * time.Second},
		{Kind: KindKillWorker, Worker: 1, At: 0, RestartAfter: 20 * time.Second},
		// The same worker killed twice must not be double-counted.
		{Kind: KindKillWorker, Worker: 0, At: 5 * time.Second, RestartAfter: 20 * time.Second},
		{Kind: KindStall, At: 0, For: 20 * time.Second, Factor: 0.5},
	}}
	// 2 of 4 workers down (0.5) times the 0.5 stall.
	if got := budget(s, 10*time.Second, 4); got != 25 {
		t.Fatalf("composed Scale = %d, want 25", got)
	}
	// All workers down floors at zero capacity, never negative.
	all := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 0, At: 0},
		{Kind: KindKillWorker, Worker: 1, At: 0},
	}}
	if got := budget(all, time.Second, 2); got != 0 {
		t.Fatalf("all-down Scale = %d, want 0", got)
	}
}

// A kill whose target is at or above the active worker count hits a worker
// that is out of service (scaled in, or not yet scaled out): the budget is
// untouched, whatever other kinds share the schedule.
func TestKillOfWorkerOutOfServiceKeepsFullBudget(t *testing.T) {
	kill := Event{Kind: KindKillWorker, Worker: 3, At: 0}
	inert := Event{Kind: KindSlowWorker, Worker: 0, At: time.Hour, For: time.Second, Factor: 0.5}
	for _, s := range []*Schedule{
		{Events: []Event{kill}},
		{Events: []Event{kill, inert}},
	} {
		if err := s.Validate(4); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if got, _ := s.Scale(1000, time.Second, 2, Recovery{}, nil); got != 1000 {
			t.Fatalf("%d-event schedule: Scale(1000) with worker 3 killed on 2 active workers = %d, want 1000", len(s.Events), got)
		}
	}
}

// Kills of distinct workers each remove their own share, however far apart
// their indices are.
func TestKillsOfDistantWorkersDoNotAlias(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindKillWorker, Worker: 0, At: 0},
		{Kind: KindKillWorker, Worker: 64, At: 0},
	}}
	if err := s.Validate(100); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, _ := s.Scale(10000, time.Second, 100, Recovery{}, nil); got != 9800 {
		t.Fatalf("Scale(10000) with workers 0 and 64 of 100 killed = %d, want 9800", got)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		ev      Event
		workers int
		wantSub string
	}{
		{"unknown kind", Event{Kind: "meteor", At: 0}, 4, "unknown kind"},
		{"negative at", Event{Kind: KindStall, At: -time.Second, For: time.Second}, 4, "at must be"},
		{"worker out of range", Event{Kind: KindKillWorker, Worker: 4, At: 0}, 4, "does not exist"},
		{"negative worker", Event{Kind: KindKillWorker, Worker: -1, At: 0}, 4, "worker must be"},
		{"negative restart", Event{Kind: KindKillWorker, Worker: 0, At: 0, RestartAfter: -time.Second}, 4, "restart_after"},
		{"stall without for", Event{Kind: KindStall, At: 0}, 4, "for > 0"},
		{"stall factor 1", Event{Kind: KindStall, At: 0, For: time.Second, Factor: 1}, 4, "factor must be"},
		{"kill with stall fields", Event{Kind: KindKillWorker, Worker: 0, At: 0, Factor: 0.5}, 4, "apply to"},
		{"stall with kill fields", Event{Kind: KindStall, At: 0, For: time.Second, RestartAfter: time.Second}, 4, "apply to"},
	}
	for _, c := range cases {
		s := &Schedule{Events: []Event{c.ev}}
		err := s.Validate(c.workers)
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.ev)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
	// workers == 0 skips only the bound check.
	unbounded := &Schedule{Events: []Event{{Kind: KindKillWorker, Worker: 100, At: 0}}}
	if err := unbounded.Validate(0); err != nil {
		t.Fatalf("Validate(0) should skip the worker bound: %v", err)
	}
}
