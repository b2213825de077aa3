// Package numeric provides the numerical substrate used throughout the
// repository: special functions, one-dimensional minimization, dense
// linear algebra, Bernstein-basis polynomials and least-squares
// function fitting.
//
// The optical stochastic-computing models in internal/core and
// internal/optics need the complementary error function and its
// inverse (bit-error-rate inversion, Eq. 9 of the paper), grid plus
// golden-section minimization (optimal wavelength spacing, Fig. 7a),
// and small dense solves (Bernstein coefficient fitting for the
// gamma-correction application). The Go standard library offers
// math.Erfc but none of the rest, so this package implements them from
// scratch with no external dependencies.
//
// All routines operate on float64 and are deterministic; none of them
// allocate beyond their result values unless documented otherwise.
package numeric
