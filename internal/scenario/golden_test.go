package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
)

// The golden artifacts under testdata/golden/ were produced by the
// pre-refactor, hand-written experiment code (`sdpsbench -exp <id>
// -scale quick -seed 42 -json`).  The specs in builtin.go must reproduce
// them byte for byte: same cell enumeration, same driver configurations,
// same assembly rendering.  Any intentional change to these experiments
// must regenerate the files and say so.

var (
	runMu    sync.Mutex
	runCache = map[string]*core.Outcome{}

	goldenOpts = core.Options{Seed: 42, Scale: core.Quick}
)

// runOnce executes a registered experiment at the golden configuration
// (seed 42, quick scale) exactly once per test binary, so the golden and
// shape tests share one simulation.
func runOnce(t *testing.T, id string) *core.Outcome {
	t.Helper()
	runMu.Lock()
	defer runMu.Unlock()
	if out, ok := runCache[id]; ok {
		return out
	}
	e, err := core.Lookup(id)
	if err != nil {
		t.Fatalf("lookup %s: %v", id, err)
	}
	out, err := e.Run(goldenOpts)
	if err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	runCache[id] = out
	return out
}

func TestGoldenArtifactsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	for _, s := range Builtin() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			e, err := core.Lookup(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, s.Name, e, runOnce(t, s.Name))
		})
	}
	// The shipped example specs (faults, rescaling, skew, disorder) are
	// pinned the same way; their goldens are `sdpsbench -scenario <file>
	// -scale quick -seed 42 -json`.
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			s, err := LoadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			e, err := Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			out, err := e.Run(goldenOpts)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, s.Name, e, out)
		})
	}
}

// checkGolden byte-compares the encoded artifact of one seed-42, quick-scale
// run against testdata/golden/<name>.json.
func checkGolden(t *testing.T, name string, e core.Experiment, out *core.Outcome) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
	if err != nil {
		t.Fatalf("golden artifact missing: %v", err)
	}
	got, err := core.NewArtifact(e, goldenOpts, out).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact for %s differs from its golden output\n got %d bytes, want %d\nfirst divergence: %s",
			name, len(got), len(want), firstDiff(got, want))
	}
}

// firstDiff renders the context around the first differing byte.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hi := i + 40
			ga, gb := hi, hi
			if ga > len(a) {
				ga = len(a)
			}
			if gb > len(b) {
				gb = len(b)
			}
			return "got ..." + string(a[lo:ga]) + "... want ..." + string(b[lo:gb]) + "..."
		}
	}
	return "one artifact is a prefix of the other"
}

// The shape tests below moved here from internal/core when their
// experiments became scenario specs; the assertions are unchanged.

// TestTable1Shape is the headline integration test: the measured
// sustainable-throughput table must have the paper's shape.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := runOnce(t, "table1").Metrics
	// Flink flat at the network bound on every size (Table I).
	for _, w := range []string{"2", "4", "8"} {
		f := m["flink/"+w]
		if f < 1.05e6 || f > 1.35e6 {
			t.Fatalf("flink/%s = %v, want ~1.2M (network bound)", w, f)
		}
	}
	// Storm and Spark scale sub-linearly and stay well below Flink.
	for _, eng := range []string{"storm", "spark"} {
		r2, r4, r8 := m[eng+"/2"], m[eng+"/4"], m[eng+"/8"]
		if !(r2 < r4 && r4 < r8) {
			t.Fatalf("%s should scale with workers: %v %v %v", eng, r2, r4, r8)
		}
		if r4 >= 2*r2 || r8 >= 2*r4 {
			t.Fatalf("%s scaling should be sub-linear: %v %v %v", eng, r2, r4, r8)
		}
		if r8 >= m["flink/8"] {
			t.Fatalf("%s must stay below flink: %v vs %v", eng, r8, m["flink/8"])
		}
	}
	// Paper: Storm outperforms Spark by ~8% on aggregation.  Quick-scale
	// probes sample the transient-episode schedule coarsely, so allow
	// the boundary a little noise.
	for _, w := range []string{"2", "4", "8"} {
		if m["storm/"+w] <= m["spark/"+w]*0.90 {
			t.Fatalf("storm/%s (%v) should be at or above spark/%s (%v)",
				w, m["storm/"+w], w, m["spark/"+w])
		}
	}
	// Within 20% of the published absolute values.
	paper := core.PaperRates(false)
	for k, want := range paper {
		got := m[k]
		if got < want*0.8 || got > want*1.25 {
			t.Fatalf("%s = %v strays too far from paper's %v", k, got, want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := runOnce(t, "table2").Metrics
	for _, w := range []string{"2", "4", "8"} {
		flink := m["flink/"+w+"/100/avg"]
		storm := m["storm/"+w+"/100/avg"]
		spark := m["spark/"+w+"/100/avg"]
		// Paper ordering: Flink lowest average, Spark highest.
		if !(flink < storm && storm < spark) {
			t.Fatalf("latency ordering violated at %s nodes: flink=%.2f storm=%.2f spark=%.2f",
				w, flink, storm, spark)
		}
		// 90% load must not be slower than max load by any margin that
		// matters (the paper sees a clear decrease).
		for _, eng := range []string{"storm", "flink"} {
			if m[eng+"/"+w+"/90/avg"] > m[eng+"/"+w+"/100/avg"]*1.4 {
				t.Fatalf("%s/%s: 90%% load slower than 100%%: %v vs %v", eng, w,
					m[eng+"/"+w+"/90/avg"], m[eng+"/"+w+"/100/avg"])
			}
		}
	}
}

func TestTable3And4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := runOnce(t, "table3").Metrics
	// Flink wins the join throughput everywhere (Table III).
	for _, w := range []string{"2", "4", "8"} {
		if m["flink/"+w] <= m["spark/"+w] {
			t.Fatalf("flink join throughput must exceed spark at %s nodes: %v vs %v",
				w, m["flink/"+w], m["spark/"+w])
		}
	}
	// Flink joins are CPU-bound at 2 nodes (well below 1.19M) and
	// network-bound at 8 (close to it).
	if m["flink/2"] > 1.0e6 {
		t.Fatalf("flink/2 join should be CPU bound (~0.85M): %v", m["flink/2"])
	}
	if m["flink/8"] < 1.0e6 {
		t.Fatalf("flink/8 join should approach the network bound: %v", m["flink/8"])
	}
	// The Storm naive-join aside: ~0.14M on 2 nodes and a stall on 4.
	if n := m["storm-naive/2"]; n < 0.08e6 || n > 0.25e6 {
		t.Fatalf("naive storm join rate %v, want ~0.14M", n)
	}
	if m["storm-naive/4/failed"] != 1 {
		t.Fatal("naive storm join must fail on 4 workers")
	}

	m4 := runOnce(t, "table4").Metrics
	for _, w := range []string{"2", "4", "8"} {
		f, s := m4["flink/"+w+"/100/avg"], m4["spark/"+w+"/100/avg"]
		// Table IV: "in all cases Flink outperforms Spark in all
		// parameters".
		if f >= s {
			t.Fatalf("flink join latency must beat spark at %s nodes: %v vs %v", w, f, s)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := runOnce(t, "fig9").Metrics
	// Figure 9: Flink's pull rate is the smoothest.
	if !(m["flink/cv"] < m["storm/cv"] && m["flink/cv"] < m["spark/cv"]) {
		t.Fatalf("flink must have the smoothest pull rate: flink=%v storm=%v spark=%v",
			m["flink/cv"], m["storm/cv"], m["spark/cv"])
	}
}
