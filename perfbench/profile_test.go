package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/queue.(*Queue).Push":                        "repro/internal/queue",
		"repro/internal/engine/flink.(*job).Tick.func1":             "repro/internal/engine/flink",
		"repro/internal/window.fold[go.shape.struct { repro/x.T }]": "repro/internal/window",
		"math.Exp":                     "math",
		"math/rand/v2.(*Rand).Uint64":  "math/rand/v2",
		"runtime.mallocgc":             "runtime",
		"internal/runtime/atomic.Xadd": "internal/runtime/atomic",
		"main.main":                    "main",
		"(unknown)":                    "(unknown)",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/generator":    "generator",
		"repro/internal/engine/spark": "engine",
		"repro/internal/flat":         "flat",
		"repro/internal/driver":       "other",
		"math/bits":                   "math",
		"runtime":                     "runtime",
		"internal/runtime/maps":       "runtime",
		"encoding/json":               "other",
		"mathx":                       "other",
	}
	for pkg, want := range cases {
		if got := bucketOf(pkg); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

// pb is a minimal protocol-buffer writer for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func (b *pb) uint(field int, x uint64) { b.varint(uint64(field)<<3 | wireVarint); b.varint(x) }

func (b *pb) bytes(field int, data []byte) {
	b.varint(uint64(field)<<3 | wireBytes)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pb) packed(field int, xs ...uint64) {
	var p pb
	for _, x := range xs {
		p.varint(x)
	}
	b.bytes(field, p.Bytes())
}

// testProfile encodes a CPU profile whose samples charge 30ns to
// queue.Push (leaf, packed location list), 50ns to math.Exp inlined into
// generator.tick (the innermost function is the leaf), and 20ns to
// driver.Run (unpacked location list).
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/queue.(*Queue).Push", "math.Exp", "repro/internal/generator.(*Generator).tick", "repro/internal/driver.Run"}
	var p pb
	vt := func(typ, unit uint64) []byte { var m pb; m.uint(1, typ); m.uint(2, unit); return m.Bytes() }
	p.bytes(1, vt(1, 2))
	p.bytes(1, vt(3, 4))
	sample := func(packed bool, locs []uint64, count, ns uint64) {
		var s pb
		if packed {
			s.packed(sampleLocationID, locs...)
		} else {
			for _, l := range locs {
				s.uint(sampleLocationID, l)
			}
		}
		s.uint(sampleValue, count)
		s.uint(sampleValue, ns)
		p.bytes(profSample, s.Bytes())
	}
	sample(true, []uint64{1, 3}, 3, 30)
	sample(true, []uint64{2, 3}, 5, 50)
	sample(false, []uint64{3}, 2, 20)
	location := func(id uint64, fns ...uint64) {
		var l pb
		l.uint(locationID, id)
		l.uint(3, 0xdeadbeef) // address, ignored
		for _, f := range fns {
			var line pb
			line.uint(lineFunction, f)
			line.uint(2, 42)
			l.bytes(locationLine, line.Bytes())
		}
		p.bytes(profLocation, l.Bytes())
	}
	location(1, 10)
	location(2, 11, 12) // math.Exp inlined into generator.tick
	location(3, 13)
	for id, name := range map[uint64]uint64{10: 5, 11: 6, 12: 7, 13: 8} {
		var f pb
		f.uint(functionID, id)
		f.uint(functionName, name)
		p.bytes(profFunction, f.Bytes())
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUSharesAggregatesFlatSamplesByPackage(t *testing.T) {
	shares, err := cpuShares(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"queue": 0.3, "math": 0.5, "other": 0.2}
	total := 0.0
	for _, b := range cpuBuckets {
		if got := shares[b]; math.Abs(got-want[b]) > 1e-12 {
			t.Errorf("share %s = %v, want %v", b, got, want[b])
		}
		total += shares[b]
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if len(shares) != len(cpuBuckets) {
		t.Errorf("got %d buckets, want %d", len(shares), len(cpuBuckets))
	}
}

func TestCPUSharesRejectsBadInput(t *testing.T) {
	if _, err := cpuShares([]byte("not gzip")); err == nil {
		t.Error("non-gzip input: want an error")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x01}) // sample field claiming 5 bytes, 1 present
	zw.Close()
	if _, err := cpuShares(gz.Bytes()); err == nil {
		t.Error("truncated profile: want an error")
	}
	if _, err := sharesByBucket(map[string]int64{}); err == nil {
		t.Error("empty profile: want an error")
	}
}
