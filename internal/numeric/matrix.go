package numeric

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix. The zero value is an
// empty matrix; use NewMatrix to allocate one of a given shape.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a rows×cols matrix of zeros.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("numeric: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("numeric: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("numeric: dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	p := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				p.data[i*p.cols+j] += a * b.data[k*b.cols+j]
			}
		}
	}
	return p, nil
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("numeric: dimension mismatch %dx%d · %d-vector", m.rows, m.cols, len(x))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// ErrSingular is returned when a solve encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("numeric: matrix is singular")

// SolveLinear solves the square system A·x = b using Gaussian
// elimination with partial pivoting. A and b are not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("numeric: SolveLinear needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("numeric: right-hand side has %d entries, want %d", len(b), n)
	}
	// Working copies.
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		maxAbs := math.Abs(m.data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.data[r*n+col]); v > maxAbs {
				piv, maxAbs = r, v
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, ErrSingular
		}
		if piv != col {
			for j := 0; j < n; j++ {
				m.data[col*n+j], m.data[piv*n+j] = m.data[piv*n+j], m.data[col*n+j]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		// Eliminate below.
		d := m.data[col*n+col]
		for r := col + 1; r < n; r++ {
			f := m.data[r*n+col] / d
			if f == 0 {
				continue
			}
			m.data[r*n+col] = 0
			for j := col + 1; j < n; j++ {
				m.data[r*n+j] -= f * m.data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.data[i*n+j] * x[j]
		}
		x[i] = s / m.data[i*n+i]
	}
	return x, nil
}

// LeastSquares solves the overdetermined system A·x ≈ b in the
// least-squares sense via the normal equations AᵀA·x = Aᵀb with a
// small Tikhonov ridge (lambda >= 0) for conditioning. The Bernstein
// coefficient fits used by the gamma-correction application are
// low-degree (n <= 8), for which the normal equations are adequately
// conditioned.
func LeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("numeric: A has %d rows but b has %d entries", a.rows, len(b))
	}
	at := a.Transpose()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	if lambda > 0 {
		for i := 0; i < ata.rows; i++ {
			ata.data[i*ata.cols+i] += lambda
		}
	}
	atb, err := at.MulVec(b)
	if err != nil {
		return nil, err
	}
	return SolveLinear(ata, atb)
}
