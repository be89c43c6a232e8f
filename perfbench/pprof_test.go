package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"spcoh/internal/noc.(*Network).Send":                 "spcoh/internal/noc",
		"spcoh/internal/protocol.(*Node).Access.func1":       "spcoh/internal/protocol",
		"spcoh/internal/experiments.(*cache[...]).do":        "spcoh/internal/experiments",
		"spcoh/internal/event.(*heap[go.shape.struct]).push": "spcoh/internal/event",
		"runtime.mallocgc":                                   "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":       "internal/runtime/maps",
		"main.(*Trace).Begin":                                "main",
		"sync.(*Mutex).Lock":                                 "sync",
		"nodots":                                             "nodots",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"spcoh/internal/event.(*Sim).Step", "spcoh/internal/sim.Run"}, "event"},
		{[]string{"spcoh/internal/noc.(*Network).Send"}, "noc"},
		{[]string{"spcoh/internal/cache.(*Cache).Lookup"}, "cache"},
		{[]string{"spcoh/internal/protocol.(*DirSlice).handle"}, "protocol"},
		{[]string{"spcoh/internal/snoop.(*System).broadcast"}, "snoop"},
		{[]string{"spcoh/internal/cpu.(*Core).step"}, "cpu"},
		{[]string{"spcoh/internal/predictor.(*Group).Predict"}, "predictor"},
		{[]string{"spcoh/internal/core.(*SP).Predict"}, "predictor"},
		{[]string{"spcoh/internal/charac.Analyze"}, "charac"},
		{[]string{"spcoh/internal/metrics.(*Collector).sample"}, "metrics"},
		{[]string{"runtime.mallocgc", "spcoh/internal/noc.(*Network).Send"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "spcoh/internal/protocol.(*Node).handle"}, "runtime"},
		{[]string{"runtime/internal/atomic.Load"}, "runtime"},
		// Recorder cost is tracing cost, whatever the leaf.
		{[]string{"runtime.nanotime1", "time.Since", "main.(*Trace).Begin", "main.(*timedPredictor).Predict"}, "perfbench"},
		{[]string{"main.(*timedPredictor).Predict", "spcoh/internal/protocol.(*Node).issue"}, "perfbench"},
		// Predictor work under the wrapper stays the predictor's.
		{[]string{"spcoh/internal/core.(*SP).Predict", "main.(*timedPredictor).Predict"}, "predictor"},
		{[]string{"spcoh/internal/sim.Run"}, ""},
		{[]string{"spcoh/internal/arch.SharerSet.Count"}, ""},
		{[]string{"spcoh/internal/experiments.(*cache[...]).do"}, ""},
		{[]string{"sync.(*Mutex).Lock"}, ""},
		{nil, ""},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pb builds protobuf messages for a synthetic profile.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) *pb {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
	return b
}

func (b *pb) bytesField(field int, body []byte) *pb {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(body))))
	b.Write(body)
	return b
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

func TestAddProfile(t *testing.T) {
	var p pb
	for _, s := range []string{"", "spcoh/internal/noc.(*Network).Send", "runtime.mallocgc", "spcoh/internal/sim.Run", "samples"} {
		p.bytesField(fProfileStrings, []byte(s))
	}
	// Functions 1..3 name strings 1..3.
	for id := uint64(1); id <= 3; id++ {
		var f pb
		f.varint(fFunctionID, id).varint(fFunctionName, id)
		p.bytesField(fProfileFunction, f.Bytes())
	}
	// Location 10 inlines runtime.mallocgc (innermost) into noc Send;
	// location 20 is sim.Run.
	var line1, line2, loc10, loc20 pb
	line1.varint(fLineFunction, 2)
	line2.varint(fLineFunction, 1)
	loc10.varint(fLocationID, 10).bytesField(fLocationLine, line1.Bytes()).bytesField(fLocationLine, line2.Bytes())
	var line3 pb
	line3.varint(fLineFunction, 3)
	loc20.varint(fLocationID, 20).bytesField(fLocationLine, line3.Bytes())
	p.bytesField(fProfileLocation, loc10.Bytes()).bytesField(fProfileLocation, loc20.Bytes())
	// Packed sample: 5 samples in runtime (leaf location 10).
	var s1 pb
	s1.bytesField(fSampleLocation, packed(10, 20)).bytesField(fSampleValue, packed(5, 50_000_000))
	// Unpacked sample: 2 samples in sim.Run.
	var s2 pb
	s2.varint(fSampleLocation, 20).varint(fSampleValue, 2).varint(fSampleValue, 20_000_000)
	p.bytesField(fProfileSample, s1.Bytes()).bytesField(fProfileSample, s2.Bytes())

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got := layerSamples{}
	if err := got.addProfile(gz.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got["runtime"] != 5 || got[""] != 2 || got.total() != 7 {
		t.Fatalf("samples by layer = %v, want runtime:5 and other:2", got)
	}
}

func TestAddProfileRejectsGarbage(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0xff}) // a length running past the end
	zw.Close()
	if err := (layerSamples{}).addProfile(gz.Bytes()); err == nil {
		t.Fatal("a truncated profile decoded without error")
	}
}
