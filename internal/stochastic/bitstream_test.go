package stochastic

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestBitstreamBasics(t *testing.T) {
	b := NewBitstream(100)
	if b.Len() != 100 || b.Ones() != 0 || b.Value() != 0 {
		t.Fatal("fresh stream not empty")
	}
	b.Set(0, 1)
	b.Set(63, 1)
	b.Set(64, 1)
	b.Set(99, 1)
	if b.Ones() != 4 {
		t.Errorf("Ones = %d", b.Ones())
	}
	if b.Get(63) != 1 || b.Get(64) != 1 || b.Get(1) != 0 {
		t.Error("Get/Set across word boundary broken")
	}
	b.Set(63, 0)
	if b.Get(63) != 0 || b.Ones() != 3 {
		t.Error("clearing a bit failed")
	}
}

func TestBitstreamPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	b := NewBitstream(8)
	mustPanic("negative length", func() { NewBitstream(-1) })
	mustPanic("get out of range", func() { b.Get(8) })
	mustPanic("set out of range", func() { b.Set(-1, 1) })
	mustPanic("mux mismatch", func() { Mux(b, b, NewBitstream(9)) })
}

func TestFromBitsAndString(t *testing.T) {
	b := FromBits([]int{0, 1, 1, 0, 1, 0, 0, 0})
	if b.Value() != 3.0/8 {
		t.Errorf("Value = %g", b.Value())
	}
	if s := b.String(); !strings.Contains(s, "(3/8)") {
		t.Errorf("String = %q", s)
	}
	long := NewBitstream(100)
	if s := long.String(); !strings.Contains(s, "0/100") {
		t.Errorf("long String = %q", s)
	}
}

func TestMuxScaledAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 1 << 16
	a, b, sel := NewBitstream(n), NewBitstream(n), NewBitstream(n)
	pa, pb, ps := 0.3, 0.9, 0.25
	for i := 0; i < n; i++ {
		if rng.Float64() < pa {
			a.Set(i, 1)
		}
		if rng.Float64() < pb {
			b.Set(i, 1)
		}
		if rng.Float64() < ps {
			sel.Set(i, 1)
		}
	}
	got := Mux(sel, a, b).Value()
	want := (1-ps)*pa + ps*pb
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Mux scaled add = %g, want ~%g", got, want)
	}
}

func TestMuxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mux with one input did not panic")
		}
	}()
	Mux(NewBitstream(4), NewBitstream(4))
}

func TestMuxNSelectsPerSlot(t *testing.T) {
	z0 := FromBits([]int{1, 1, 1, 1})
	z1 := FromBits([]int{0, 0, 0, 0})
	z2 := FromBits([]int{1, 0, 1, 0})
	out := MuxN([]int{0, 1, 2, 2}, z0, z1, z2)
	want := []int{1, 0, 1, 0}
	for i, w := range want {
		if out.Get(i) != w {
			t.Errorf("bit %d = %d, want %d", i, out.Get(i), w)
		}
	}
}

func TestMuxNPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("no inputs", func() { MuxN([]int{0}) })
	mustPanic("bad select", func() { MuxN([]int{5}, FromBits([]int{1})) })
	mustPanic("length mismatch", func() { MuxN([]int{0, 0}, FromBits([]int{1})) })
}

func TestCorrelationExtremes(t *testing.T) {
	a := FromBits([]int{1, 1, 0, 0})
	if got := Correlation(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %g, want 1", got)
	}
	anti := FromBits([]int{0, 0, 1, 1})
	if got := Correlation(a, anti); math.Abs(got-(-1)) > 1e-12 {
		t.Errorf("anti correlation = %g, want -1", got)
	}
	if got := Correlation(NewBitstream(0), NewBitstream(0)); got != 0 {
		t.Errorf("empty correlation = %g", got)
	}
}

func TestCorrelationIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1 << 16
	a, b := NewBitstream(n), NewBitstream(n)
	for i := 0; i < n; i++ {
		a.Set(i, rng.Intn(2))
		b.Set(i, rng.Intn(2))
	}
	if got := Correlation(a, b); math.Abs(got) > 0.02 {
		t.Errorf("independent correlation = %g, want ~0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromBits([]int{1, 0, 1})
	c := a.Clone()
	c.Set(1, 1)
	if a.Get(1) != 0 {
		t.Error("Clone aliases storage")
	}
}

// FromBits builds a stream from a slice of 0/1 ints. Any non-zero
// entry counts as 1. It is the tests' literal-stream constructor.
func FromBits(bits []int) *Bitstream {
	b := NewBitstream(len(bits))
	for i, v := range bits {
		if v != 0 {
			b.Set(i, 1)
		}
	}
	return b
}

// Correlation returns the stochastic cross-correlation (SCC) of two
// equal-length streams, in [-1, 1]: +1 for maximally overlapping
// ones, -1 for maximally anti-overlapping, 0 for independence. The
// tests use it to check the correlation a source or a kernel promises.
func Correlation(a, b *Bitstream) float64 {
	a.sameLen(b)
	n := float64(a.n)
	if n == 0 {
		return 0
	}
	pa, pb := a.Value(), b.Value()
	both := 0
	for i := 0; i < a.n; i++ {
		both += a.Get(i) & b.Get(i)
	}
	pab := float64(both) / n
	d := pab - pa*pb
	if d == 0 {
		return 0
	}
	var denom float64
	if d > 0 {
		denom = math.Min(pa, pb) - pa*pb
	} else {
		denom = pa*pb - math.Max(pa+pb-1, 0)
	}
	if denom == 0 {
		return 0
	}
	return d / denom
}
