// Package core implements the optical stochastic-computing
// architecture of El-Derhalli, Le Beux and Tahar, "Stochastic
// Computing with Integrated Optics" (DATE 2019) — the paper's primary
// contribution.
//
// # Architecture (paper Fig. 3/4)
//
// An n-order unit evaluates a Bernstein polynomial B(x) = Σ b_i
// B_{i,n}(x) optically:
//
//   - a pump laser feeds n parallel MZIs through a 1:n splitter; data
//     bit x_i = 1 drives MZI i into destructive interference, so the
//     recombined pump power encodes the number of '1' data bits
//     (Eq. 7b);
//   - the pump tunes an all-optical add-drop micro-ring filter via
//     two-photon absorption: the filter resonance blue-shifts by
//     ΔFilter = OPpump · OTE · (1/n) Σ T_MZI(x_i) (Eq. 7a);
//   - n+1 probe lasers at wavelengths λ_0 < λ_1 < ... < λ_n (WDM grid
//     with spacing WLspacing, Eq. 5) are OOK-modulated by the
//     coefficient bits z_i through micro-ring modulators; the shifted
//     filter drops exactly the probe selected by the data weight onto
//     the photodetector (Eq. 6);
//   - counting received ones de-randomizes the output.
//
// The analytical transmission model (Eqs. 5–7), SNR and BER (Eqs. 8–9),
// both design-space-exploration methods (MRR-first, MZI-first), the
// pulse-based-pump energy model (Fig. 7), and a reconfigurable
// multi-order variant are implemented here on top of the device models
// in internal/optics.
//
// # Evaluation paths
//
// Unit.Step/Evaluate is the bit-serial oracle. EvaluateWords, Cycles
// and the noisy evaluators simulate 64 clocks per word: SNG words, a
// carry-save adder tree for the data weight, and a lookup of each
// cycle's cell in the circuit's (weight, z-mask) received-power table.
// Params.Validate caps the order at MaxOrder (16), so every circuit has
// that table. One packed kernel thresholds the looked-up levels against
// the calibrated level for EvaluateWords, EvaluateNoisy,
// EvaluateNoisySeeded and the non-mux batch. Noiseless, it compares
// each level with the threshold. EvaluateNoisy adds a caller's block
// noise samples first. EvaluateNoisySeeded takes a Gaussian and the
// unit's NoiseScreens (one stochastic.Screen per table cell, bound to
// one sigma) and lets stochastic.Gaussian.ThresholdWord return the
// decisions that Gaussian's FillScaled noise would give, skipping the
// Box–Muller arithmetic wherever a screen settles a pair. A calibrated
// circuit with an open eye, whose filter routes weight w to probe
// channel w, is in mux form: pow[w][z] > threshold exactly when bit w
// of z is set, so a noiseless cycle outputs the coefficient bit its
// weight selects, exactly as the electronic ReSC multiplexer does.
// muxForm checks this once per unit. In mux form EvaluateBatch hands
// each input's SplitMix64 seeds to stochastic.ReSCOnesSplitMix, which
// computes counter-indexed draws and so draws only the selected
// coefficient at each clock; otherwise it runs the packed kernel. Both
// count the same ones from the same seeds. The noisy paths draw every
// coefficient, because under noise every coefficient bit moves the
// received power.
//
// The Eq. (8) margin (WorstCaseDelta) reads only the one-hot
// transmissions: each probe's ring product under its own one-hot
// pattern, times the filter drops. It takes them from the per-device
// factor cache when the power table has built it, and otherwise
// evaluates just those factors, so a design solve that only sizes
// probes never builds the cache.
//
// # Calibration
//
// The paper does not publish micro-ring coupling coefficients or the
// photodetector noise. RingShape presets and DefaultDetector are
// calibrated so the paper's quantitative anchors hold: the Fig. 5
// received-power bands, the 591.8 mW / 13.22 dB pump sizing of §V.A,
// the 0.26 mW probe power at the Fig. 6(a) anchor, and the ≈20 pJ/bit
// optimum of Fig. 7(a). `oscbench -fig summary` renders the
// measured-vs-paper numbers.
package core
