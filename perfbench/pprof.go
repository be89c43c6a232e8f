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

// cpuLayers are the layers a CPU profile's samples are attributed to, in
// report order. Each gets a "<layer>.cpu_share" per-layer metric.
var cpuLayers = []string{
	"event", "noc", "cache", "protocol", "snoop", "cpu", "predictor",
	"charac", "metrics", "runtime", "perfbench",
}

// layerOf maps a sample's stack (leaf first) to a layer. A sample taken
// inside the benchmark's own span recorder is tracing cost and belongs to
// "perfbench" whatever its leaf; any other sample belongs to the layer of
// its leaf frame's package, the benchmark's own package included. The
// empty string means no listed layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.(*Trace).") {
			return "perfbench"
		}
	}
	if len(stack) == 0 {
		return ""
	}
	pkg := packageOf(stack[0])
	switch {
	case pkg == "main":
		return "perfbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "spcoh/internal/core":
		// The SP predictor implements predictor.Predictor; both are one layer.
		return "predictor"
	}
	switch l, ok := strings.CutPrefix(pkg, "spcoh/internal/"); {
	case !ok:
		return ""
	case l == "event", l == "noc", l == "cache", l == "protocol", l == "snoop",
		l == "cpu", l == "predictor", l == "charac", l == "metrics":
		return l
	}
	return ""
}

// packageOf returns the import path of a symbol name as the Go runtime
// writes it, such as "spcoh/internal/noc.(*Network).Send" or
// "spcoh/internal/experiments.(*cache[...]).do.func1".
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

// layerSamples counts CPU-profile samples per layer; "" holds the rest.
type layerSamples map[string]int64

func (s layerSamples) total() int64 {
	var n int64
	for _, v := range s {
		n += v
	}
	return n
}

// addProfile decodes a gzipped pprof CPU profile, as runtime/pprof writes
// it, and adds its sample counts to s by layer.
func (s layerSamples) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, smp := range p.samples {
		var stack []string
		for _, loc := range smp.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.funcNames[fn]
				if name < 0 || name >= int64(len(p.strings)) {
					return errors.New("cpu profile: function name outside the string table")
				}
				stack = append(stack, p.strings[name])
			}
		}
		s[layerOf(stack)] += smp.count
	}
	return nil
}

// profile holds the parts of a pprof profile that layer attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64    // the first value: the number of samples
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(f int, v uint64, body []byte) error {
		switch f {
		case fProfileSample:
			var s sample
			var values []uint64
			if err := eachField(body, func(f int, v uint64, body []byte) error {
				switch f {
				case fSampleLocation:
					return appendPacked(&s.locs, v, body)
				case fSampleValue:
					return appendPacked(&values, v, body)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(body, func(f int, v uint64, body []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(body, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			if err := eachField(body, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcNames[id] = name
		case fProfileStrings:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited body.
func eachField(b []byte, fn func(field int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which arrives either as
// one varint (body nil) or packed in a length-delimited body.
func appendPacked(dst *[]uint64, v uint64, body []byte) error {
	if body == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		body = body[n:]
	}
	return nil
}
