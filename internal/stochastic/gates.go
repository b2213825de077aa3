package stochastic

// Elementary stochastic arithmetic (Gaines [7], Poppelbaum [8]): the
// unipolar scaled adder the ReSC architecture composes. The gate is a
// pure function of bit-streams; accuracy follows from stream
// independence exactly as in the hardware.

// ScaledAdd returns the unipolar scaled addition
// s·b + (1−s)·a, implemented by a 2:1 multiplexer whose select
// stream carries probability s. The result stays in [0, 1] — SC's
// closure property.
func ScaledAdd(sel, a, b *Bitstream) *Bitstream {
	return Mux(sel, a, b)
}
