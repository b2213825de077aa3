package transient

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stochastic"
)

// Step runs one noisy clock cycle at input probability x.
func (s *Simulator) Step(x float64) core.StepResult {
	return s.Unit.Step(x, s.noise.NextScaled(s.SigmaMW))
}

// Evaluate runs `length` noisy cycles bit-serially and de-randomizes
// the output. It is the bit-serial oracle EvaluateWords is checked
// against, and no production path runs it; a non-positive length is an
// error (an empty bitstream has no defined value).
func (s *Simulator) Evaluate(x float64, length int) (float64, *stochastic.Bitstream, error) {
	if length <= 0 {
		return 0, nil, fmt.Errorf("transient: stream length %d, need >= 1", length)
	}
	out := stochastic.NewBitstream(length)
	for t := 0; t < length; t++ {
		out.Set(t, s.Step(x).Bit)
	}
	return out.Value(), out, nil
}
