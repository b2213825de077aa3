package stochastic

import (
	"math"
	"testing"
)

func independentStreams(seed uint64, n int, ps ...float64) []*Bitstream {
	out := make([]*Bitstream, len(ps))
	for i, p := range ps {
		g := NewSNG(NewSplitMix64(seed + uint64(i)*7919))
		out[i] = g.Generate(p, n)
	}
	return out
}

func TestScaledAddGate(t *testing.T) {
	s := independentStreams(2, 1<<16, 0.2, 0.8, 0.5)
	got := ScaledAdd(s[2], s[0], s[1]).Value()
	want := 0.5*0.2 + 0.5*0.8
	if math.Abs(got-want) > 0.01 {
		t.Errorf("scaled add = %g, want %g", got, want)
	}
}
