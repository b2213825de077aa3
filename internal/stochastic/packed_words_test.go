package stochastic

// EvaluateWords runs `length` clock cycles at input x through the
// word-parallel datapath and returns the de-randomized estimate of
// B(x) with the raw output stream — the packed equivalent of
// Evaluate, 64 cycles per inner iteration. The two paths produce
// identical bitstreams from equal, mutually independent sources. It is
// the stateful-source oracle ReSCOnesSplitMix and EvaluateBatch are
// checked against; no production path runs it.
func (r *ReSC) EvaluateWords(x float64, length int) (float64, *Bitstream) {
	n := r.Degree()
	out := NewBitstream(length)
	var planes []uint64
	coefWords := make([]uint64, n+1)
	for w := 0; w < out.WordCount(); w++ {
		nbits := out.WordBits(w)
		planes = planes[:0]
		for i := 0; i < n; i++ {
			planes = AddPlane(planes, bernoulliWord(r.DataSources[i], x, nbits))
		}
		for i := 0; i <= n; i++ {
			coefWords[i] = bernoulliWord(r.CoefSources[i], r.Poly.Coef[i], nbits)
		}
		var word uint64
		for s := 0; s <= n; s++ {
			word |= PlaneEquals(planes, s) & coefWords[s]
		}
		out.SetWord(w, word)
	}
	return out.Value(), out
}
