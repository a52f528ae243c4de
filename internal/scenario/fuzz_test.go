package scenario

import (
	"testing"
)

// FuzzSpecJSON feeds arbitrary bytes through the exact Parse → Validate →
// Compile path the coordinator's validateSpec and the CLI's
// -scenario-validate use: malformed scenario JSON (including malformed
// fault schedules) must produce errors, never panics.
func FuzzSpecJSON(f *testing.F) {
	seeds := []string{
		`{"name":"x","seeds":1,"measure":{"kind":"throughput-series"},` +
			`"sweeps":[{"engines":["flink"],"workers":[2],"query":{"kind":"aggregation"},` +
			`"load":{"kind":"constant","rate_ev_per_sec":100000}}]}`,
		`{"name":"r","seeds":1,"measure":{"kind":"recovery-series"},` +
			`"faults":[{"kind":"kill-worker","worker":1,"at":"20s","restart_after":"8s"}],` +
			`"sweeps":[{"engines":["flink"],"workers":[2],"query":{"kind":"aggregation"},` +
			`"load":{"kind":"constant","rate_ev_per_sec":800000}}]}`,
		`{"name":"t","seeds":1,"measure":{"kind":"recovery-series"},` +
			`"faults":[{"kind":"partition","at":"15s","for":"8s","groups":[[0,1,2],[3]]},` +
			`{"kind":"slow-worker","worker":2,"at":"32s","for":"8s","factor":0.2},` +
			`{"kind":"checkpoint-restore","worker":1,"at":"50s","restart_after":"5s"}],` +
			`"sweeps":[{"engines":["storm","spark"],"workers":[4],"query":{"kind":"aggregation"},` +
			`"load":{"kind":"constant","rate_ev_per_sec":550000}}]}`,
		`{"name":"p","seeds":1,"measure":{"kind":"latency-pair-series","series_stats":["slope","mean"],"verdict":true},` +
			`"sweeps":[{"engines":["spark"],"workers":[2],"query":{"kind":"aggregation"},` +
			`"load":{"kind":"constant","rate_ev_per_sec":600000}}]}`,
		`{"name":"e","seeds":1,"measure":{"kind":"throughput-series","extra":"scheduler_delay"},` +
			`"sweeps":[{"engines":["spark"],"workers":[4],"query":{"kind":"aggregation"},` +
			`"load":{"kind":"constant","rate_ev_per_sec":700000}}]}`,
		`{"name":"n","seeds":1,"measure":{"kind":"resource-series","series_stats":["max"]},` +
			`"sweeps":[{"engines":["flink"],"workers":[4],"query":{"kind":"aggregation"},` +
			`"load":{"kind":"table-rates","pcts":[100]}}]}`,
		`{"name":"o","seeds":1,"measure":{"kind":"outcome"},"sweeps":[` +
			`{"prefix":"rate","engines":["spark"],"workers":[2],"query":{"kind":"aggregation","strategy":"recompute"},` +
			`"load":{"keys":{"kind":"single"}}},` +
			`{"prefix":"run","engines":["storm"],"workers":[2],"spillable_state":true,` +
			`"query":{"kind":"aggregation","window_size":"60s","window_slide":"60s"},` +
			`"load":{"kind":"constant","rate_ev_per_sec":400000}}]}`,
		`{"name":"bad-spill","seeds":1,"measure":{"kind":"outcome"},` +
			`"sweeps":[{"engines":["flink"],"workers":[2],"spillable_state":true,"query":{"kind":"aggregation"}}]}`,
		`{"name":"bad-extra","seeds":1,"measure":{"kind":"throughput-series","extra":"scheduler_delay"},` +
			`"sweeps":[{"engines":["flink"],"workers":[2],"query":{"kind":"aggregation"},` +
			`"load":{"kind":"constant","rate_ev_per_sec":100000}}]}`,
		`{"faults":[{"kind":"partition","groups":[[0,0]]}]}`,
		`{"name":"bad","measure":{"kind":"meteor"}}`,
		`{"name":"neg","seeds":-1}`,
		`{}`,
		`[]`,
		`not json`,
		`{"name":"dup","sweeps":[{"workers":[0]}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Parse validates; anything it accepts must also compile.
		if _, err := Compile(s); err != nil {
			t.Fatalf("validated spec failed to compile: %v\n%s", err, data)
		}
	})
}
