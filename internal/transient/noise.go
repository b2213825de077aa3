package transient

import (
	"repro/internal/stochastic"
)

// Gaussian is the shared Box–Muller sampler (stochastic.Gaussian),
// re-exported under its historical name: transient simulations consume
// it for detector noise, and the per-sample (Next/NextScaled) and
// block (Fill/FillScaled) interfaces draw bit-identical sequences from
// equal sources — see the type's documentation in internal/stochastic.
type Gaussian = stochastic.Gaussian

// NewGaussian wraps a SplitMix64 uniform source.
func NewGaussian(src *stochastic.SplitMix64) *Gaussian {
	return stochastic.NewGaussian(src)
}
