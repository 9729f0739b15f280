package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The standard library
// has no reader for it, so this file decodes the few fields the
// per-package shares need: samples with their stacks and labels,
// locations, functions and the string table.

// sharePkgs are the buckets a CPU sample can be charged to: the
// repository's internal packages the workloads reach, "variantgen"
// for core/variantgen.go (the compile layer's part of core),
// "harness" for the benchmark's own code, "runtime_gc" for samples
// with no repository frame (scheduler, GC workers, the allocator
// called from nowhere in the repository) and "other" for any other
// repository package.
var sharePkgs = []string{
	"cc", "mvir", "variantgen", "codegen", "obj", "link",
	"core", "machine", "cpu", "isa", "mem", "snapshot", "fleet", "faultinject",
	"metrics", "trace", "kernelsim", "muslsim", "grepsim", "pysim", "bench",
	"harness", "runtime_gc", "other",
}

// buildSharePkgs are the buckets reported for the build phase alone:
// the compile layer, boot (machine, core.NewRuntime) and the runtime.
var buildSharePkgs = []string{"cc", "mvir", "variantgen", "codegen", "obj", "link", "core", "machine", "runtime_gc"}

const modulePrefix = "repro/internal/"

type pbLine struct{ fn uint64 }

type pbFunction struct{ name, file int64 }

type pbSample struct {
	locs  []uint64
	value int64
	phase string
}

type profile struct {
	samples   []pbSample
	locations map[uint64][]pbLine // innermost inlined frame first
	functions map[uint64]pbFunction
	strs      []string
}

// shares is a CPU profile charged to packages, overall and per phase
// label. Weights are CPU nanoseconds.
type shares struct {
	Total   float64
	ByPkg   map[string]float64
	ByPhase map[string]map[string]float64
}

// share returns pkg's fraction of all samples (0 for an empty profile).
func (s *shares) share(pkg string) float64 {
	if s.Total == 0 {
		return 0
	}
	return s.ByPkg[pkg] / s.Total
}

// phaseShare returns pkg's fraction of the samples labelled phase.
func (s *shares) phaseShare(phase, pkg string) float64 {
	m := s.ByPhase[phase]
	var total float64
	for _, v := range m {
		total += v
	}
	if total == 0 {
		return 0
	}
	return m[pkg] / total
}

// chargeProfile decodes a gzipped CPU profile and charges every sample
// to the innermost repository frame of its stack.
func chargeProfile(gz []byte) (*shares, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	s := &shares{ByPkg: make(map[string]float64), ByPhase: make(map[string]map[string]float64)}
	for _, smp := range p.samples {
		pkg := p.bucket(smp.locs)
		w := float64(smp.value)
		s.Total += w
		s.ByPkg[pkg] += w
		if smp.phase != "" {
			if s.ByPhase[smp.phase] == nil {
				s.ByPhase[smp.phase] = make(map[string]float64)
			}
			s.ByPhase[smp.phase][pkg] += w
		}
	}
	return s, nil
}

// bucket walks a stack leaf first and names the first repository frame.
func (p *profile) bucket(locs []uint64) string {
	for _, id := range locs {
		for _, ln := range p.locations[id] {
			fn := p.functions[ln.fn]
			if b, ok := classify(p.str(fn.name), p.str(fn.file)); ok {
				return b
			}
		}
	}
	return "runtime_gc"
}

// classify maps a function to its bucket; ok is false for functions
// outside the repository.
func classify(name, file string) (string, bool) {
	rest, found := strings.CutPrefix(name, modulePrefix)
	if !found {
		// The benchmark itself: package main in its binary, its
		// module path in its test binary.
		if strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "repro/hostbench.") {
			return "harness", true
		}
		return "", false
	}
	pkg := rest
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "core" && strings.HasSuffix(file, "internal/core/variantgen.go") {
		return "variantgen", true
	}
	for _, b := range sharePkgs {
		if b == pkg {
			return pkg, true
		}
	}
	return "other", true
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]pbLine), functions: make(map[uint64]pbFunction)}
	// Labels refer to the string table, which may come after the
	// samples; keep the raw label pairs and resolve them at the end.
	type rawLabel struct{ key, str int64 }
	var labels [][]rawLabel
	err = walk(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var smp pbSample
			var ls []rawLabel
			var values []int64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return packed(v, b, func(x uint64) { smp.locs = append(smp.locs, x) })
				case 2:
					return packed(v, b, func(x uint64) { values = append(values, int64(x)) })
				case 3:
					var l rawLabel
					err := walk(b, func(f int, v uint64, _ []byte) error {
						switch f {
						case 1:
							l.key = int64(v)
						case 2:
							l.str = int64(v)
						}
						return nil
					})
					ls = append(ls, l)
					return err
				}
				return nil
			})
			if len(values) > 0 {
				smp.value = values[len(values)-1] // cpu nanoseconds
			}
			p.samples = append(p.samples, smp)
			labels = append(labels, ls)
			return err
		case 4: // Location
			var id uint64
			var lines []pbLine
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var ln pbLine
					err := walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							ln.fn = v
						}
						return nil
					})
					lines = append(lines, ln)
					return err
				}
				return nil
			})
			p.locations[id] = lines
			return err
		case 5: // Function
			var id uint64
			var fn pbFunction
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			p.functions[id] = fn
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for i, ls := range labels {
		for _, l := range ls {
			if p.str(l.key) == "phase" {
				p.samples[i].phase = p.str(l.str)
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protocol buffer")

// walk calls fn for every field of a protocol buffer message: v holds
// the value of a varint or fixed field, b the bytes of a
// length-delimited one.
func walk(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(buf)
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed delivers a repeated varint field that may be encoded either
// packed (b holds the varints) or one value per field (v).
func packed(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
