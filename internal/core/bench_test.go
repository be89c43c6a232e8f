package core

import (
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/predictor"
)

// benchOutcome is a communicating write miss: data from node 3, copies at
// nodes 5 and 9 invalidated.
var benchOutcome = predictor.Outcome{Provider: 3, Invalidated: arch.SetOf(5, 9), Communicating: true}

// warmPredictor returns node 0's predictor on the paper's 16-node machine
// inside a repeated epoch, with a history prediction active.
func warmPredictor() *Predictor {
	p := NewPredictor(DefaultConfig(16), 0, nil)
	for i := 0; i < 3; i++ {
		barrier(p, 100)
		trainComm(p, 3, 10)
		barrier(p, 200)
	}
	barrier(p, 100)
	return p
}

// BenchmarkPredict measures the lookup a miss makes: the active
// prediction register, minus the requester.
func BenchmarkPredict(b *testing.B) {
	p := warmPredictor()
	miss := predictor.Miss{Node: 0, Kind: predictor.WriteMiss}
	if _, tag := p.Predict(miss); tag != predictor.TagHistory {
		b.Fatalf("warm predictor tag %v, want a history prediction", tag)
	}
	b.ReportAllocs()
	for b.Loop() {
		p.Predict(miss)
	}
}

// BenchmarkTrain measures the update a resolved miss makes: the
// communication counters and the confidence check.
func BenchmarkTrain(b *testing.B) {
	p := warmPredictor()
	miss := predictor.Miss{Node: 0, Kind: predictor.WriteMiss}
	b.ReportAllocs()
	for b.Loop() {
		p.Train(miss, benchOutcome)
	}
}

// BenchmarkEpoch measures one epoch of the SP-table: a barrier stores the
// closing epoch's signature and recalls the opening one's history, then
// NoiseMinComm communicating misses make the next signature worth
// storing. Four static barriers rotate, so every recall hits.
func BenchmarkEpoch(b *testing.B) {
	p := warmPredictor()
	miss := predictor.Miss{Node: 0, Kind: predictor.WriteMiss}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		barrier(p, uint64(100+i&3))
		for k := 0; k < p.cfg.NoiseMinComm; k++ {
			p.Train(miss, benchOutcome)
		}
	}
}
