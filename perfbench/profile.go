package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The benchmark attributes CPU time to packages from a runtime/pprof CPU
// profile of its own process.  The profile is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto); only the standard library
// is available, so the few messages needed are decoded by hand below.

// cpuBuckets are the package groups cpu_share.* reports, in print order.
// Everything that matches none of them lands in "other".
var cpuBuckets = []string{"generator", "queue", "engine", "window", "flat", "sim", "metrics", "math", "runtime", "other"}

// bucketOf maps a Go package path to its cpu_share bucket.
func bucketOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		switch name {
		case "generator", "queue", "engine", "window", "flat", "sim", "metrics":
			return name
		}
		return "other"
	}
	switch {
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// packageOf extracts the package path from a symbol name such as
// "repro/internal/queue.(*Queue).Push" or "math.Exp".  Type arguments of
// generic instantiations may themselves contain paths, so they are cut
// off first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares decodes a pprof CPU profile and returns the flat share of CPU
// time per bucket: every sample is charged to the innermost function of
// its leaf frame, so the shares sum to 1.
func cpuShares(gz []byte) (map[string]float64, error) {
	flat, err := flatByFunction(gz)
	if err != nil {
		return nil, err
	}
	return sharesByBucket(flat)
}

// sharesByBucket folds flat per-function weights into bucket shares.
func sharesByBucket(flat map[string]int64) (map[string]float64, error) {
	total := int64(0)
	byBucket := map[string]int64{}
	for fn, w := range flat {
		byBucket[bucketOf(packageOf(fn))] += w
		total += w
	}
	if total <= 0 {
		return nil, errors.New("profile: no CPU samples")
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = float64(byBucket[b]) / float64(total)
	}
	return out, nil
}

// flatByFunction returns the profile's flat weight (its last sample value,
// CPU nanoseconds for a CPU profile) per leaf function name.
func flatByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if len(s.locations) == 0 || len(s.values) == 0 {
			continue
		}
		name := "(unknown)"
		if lines := p.locations[s.locations[0]]; len(lines) > 0 {
			if f, ok := p.functions[lines[0]]; ok && f >= 0 && int(f) < len(p.strings) {
				name = p.strings[f]
			}
		}
		out[name] += s.values[len(s.values)-1]
	}
	return out, nil
}

type pbSample struct {
	locations []uint64
	values    []int64
}

// pbProfile is the subset of profile.proto the attribution needs.
type pbProfile struct {
	samples []pbSample
	// locations maps a location id to the function ids of its lines,
	// innermost inlined function first.
	locations map[uint64][]uint64
	// functions maps a function id to its name's string-table index.
	functions map[uint64]int64
	strings   []string
}

// Field numbers from profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case profSample:
			var s pbSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case sampleLocationID:
					return appendVarints(&s.locations, w, v, d)
				case sampleValue:
					var u []uint64
					if err := appendVarints(&u, w, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// Protocol-buffer wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// eachField walks one message's fields, passing varints in v and
// length-delimited payloads in data.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = readVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case wireI64:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case wireI32:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := readVarint(data)
		if n == 0 {
			return errors.New("truncated packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// readVarint decodes one base-128 varint, returning 0 bytes read on
// truncation or overflow.
func readVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// shareTable renders bucket shares, largest first, for the traced run's
// output.
func shareTable(shares map[string]float64) string {
	names := append([]string(nil), cpuBuckets...)
	sort.SliceStable(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	var sb strings.Builder
	sb.WriteString("cpu_share (flat, by package)\n")
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-10s %6.1f%%\n", n, 100*shares[n])
	}
	return sb.String()
}
