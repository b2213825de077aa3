package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MatrixFromRows builds a matrix from a slice of equal-length rows.
// The data is copied.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("numeric: ragged rows: row %d has %d entries, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Errorf("At(1,2) = %g", got)
	}
	c := m.Clone()
	c.Set(1, 2, 9)
	if m.At(1, 2) != 7 {
		t.Error("Clone is not deep")
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Error("MatrixFromRows wrong layout")
	}
	if _, err := MatrixFromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestMatrixIndexPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At did not panic")
		}
	}()
	_ = m.At(2, 0)
}

func TestTranspose(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	id, _ := MatrixFromRows([][]float64{{1, 0}, {0, 1}})
	p, err := a.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != a.At(i, j) {
				t.Fatalf("A·I != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulShapeMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := a.MulVec([]float64{1, 2}); err == nil {
		t.Error("vector shape mismatch accepted")
	}
}

func TestSolveLinearKnown(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("expected ErrSingular, got %v", err)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a, _ := MatrixFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveLinear(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-5) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("pivoted solve = %v", x)
	}
}

func TestSolveLinearRandomProperty(t *testing.T) {
	// A·x reproduced by solving against the product.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant => nonsingular
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b, err := a.MulVec(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Overdetermined but consistent: y = 2 + 3x sampled at 5 points.
	a := NewMatrix(5, 2)
	b := make([]float64, 5)
	for i := 0; i < 5; i++ {
		x := float64(i)
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	c, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]-2) > 1e-9 || math.Abs(c[1]-3) > 1e-9 {
		t.Errorf("LeastSquares = %v, want [2 3]", c)
	}
}

func TestLeastSquaresRidge(t *testing.T) {
	// With a huge ridge the solution shrinks toward zero.
	a := NewMatrix(3, 1)
	for i := 0; i < 3; i++ {
		a.Set(i, 0, 1)
	}
	b := []float64{1, 1, 1}
	c, err := LeastSquares(a, b, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]) > 1e-6 {
		t.Errorf("ridge solution %g not shrunk", c[0])
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		m := NewMatrix(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		tt := m.Transpose().Transpose()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if tt.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
