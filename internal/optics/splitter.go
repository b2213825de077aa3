package optics

import "fmt"

// Splitter is a 1:N power splitter. Each output port carries 1/N of
// the input power further reduced by an optional excess loss.
type Splitter struct {
	Ports        int
	ExcessLossDB float64
}

// ExcessLossFraction returns the linear excess-loss transmission
// (1.0 for an ideal splitter).
func (s Splitter) ExcessLossFraction() float64 {
	if s.ExcessLossDB <= 0 {
		return 1
	}
	return LossToLinear(s.ExcessLossDB)
}

// String implements fmt.Stringer.
func (s Splitter) String() string {
	return fmt.Sprintf("Splitter(1:%d, excess %.2fdB)", s.Ports, s.ExcessLossDB)
}

// Combiner is an N:1 power combiner. For the incoherent power
// bookkeeping used by the paper's transmission model the combiner is
// transparent up to its excess loss; interference between arms is
// already accounted for inside each MZI.
type Combiner struct {
	Ports        int
	ExcessLossDB float64
}

// ExcessLossFraction returns the linear excess-loss transmission.
func (c Combiner) ExcessLossFraction() float64 {
	if c.ExcessLossDB <= 0 {
		return 1
	}
	return LossToLinear(c.ExcessLossDB)
}

// String implements fmt.Stringer.
func (c Combiner) String() string {
	return fmt.Sprintf("Combiner(%d:1, excess %.2fdB)", c.Ports, c.ExcessLossDB)
}
