// Package optics models the silicon-photonic devices that the optical
// stochastic-computing architecture of El-Derhalli et al. (DATE 2019)
// is built from:
//
//   - Mach–Zehnder interferometer (MZI) modulators characterized by
//     insertion loss and extinction ratio (paper Eq. 7b);
//   - micro-ring resonators (MRRs) used both as electro-optic
//     modulators (through-port transmission, paper Eq. 2) and as the
//     all-optical add-drop multiplexing filter (drop-port
//     transmission, paper Eq. 3);
//   - two-photon-absorption (TPA) resonance tuning by its optical
//     tuning efficiency (OTE, nm/mW), the linear form of paper Eq. 4;
//   - continuous-wave and 26 ps pulse-based lasers with lasing
//     efficiency, splitters/combiners, a band-pass pump-rejection
//     filter and an OOK photodetector with responsivity and internal
//     noise current.
//
// # Unit conventions
//
// Wavelengths are nanometres (nm), optical powers milliwatts (mW),
// photocurrents amperes (A), times seconds (s) and energies joules
// (J). Decibel quantities are always spelled out in field names
// (ILdB, ERdB); linear transmissions are dimensionless fractions in
// [0, 1].
//
// The devices are deliberately pure functions of their parameters: no
// hidden state, no randomness. Stochastic behaviour (detector noise,
// bit-stream generation) lives in internal/transient and
// internal/stochastic.
//
// # The field-model oracle
//
// The field_*_test.go files build the same devices from first
// principles: directional couplers, lossy phase arms and their
// compositions, with transmissions derived from complex field
// amplitudes. Their tests prove that the intensity equations here
// (Eqs. 2, 3 and 7b) follow from that interference model, and that
// core.Circuit.ProbeTransmission matches it along the paper circuit's
// probe path.
//
// Two more models back paper claims from the tests alone: noise_test.go
// splits the detector noise into thermal, shot and RIN terms to show
// that Eq. 8's constant i_n holds at the paper's received powers, and
// tpa_test.go holds Eq. 4's index model, whose linearity in pump power
// is what lets the OTE tuner stand in for it.
package optics
