package stochastic

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bitstream is a fixed-length sequence of bits packed 64 per word,
// interpreted as a stochastic number: its value is the fraction of
// ones. The zero value is an empty stream.
type Bitstream struct {
	words []uint64
	n     int
}

// NewBitstream returns an all-zero stream of length n.
func NewBitstream(n int) *Bitstream {
	if n < 0 {
		panic("stochastic: negative bitstream length")
	}
	return &Bitstream{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the stream length in bits.
func (b *Bitstream) Len() int { return b.n }

// WordCount returns the number of 64-bit words backing the stream.
func (b *Bitstream) WordCount() int { return len(b.words) }

// WordBits returns how many bits of word i are in range: 64 for every
// word but possibly the last.
func (b *Bitstream) WordBits(i int) int {
	b.checkWord(i)
	if rem := b.n - i*64; rem < 64 {
		return rem
	}
	return 64
}

// SetWord assigns the i-th 64-bit word. Bits past Len() are cleared,
// so whole-word writers need not mask the tail themselves.
func (b *Bitstream) SetWord(i int, w uint64) {
	b.checkWord(i)
	b.words[i] = w
	if i == len(b.words)-1 {
		b.maskTail()
	}
}

func (b *Bitstream) checkWord(i int) {
	if i < 0 || i >= len(b.words) {
		panic(fmt.Sprintf("stochastic: word index %d out of range [0,%d)", i, len(b.words)))
	}
}

// Get returns bit i (0 or 1).
func (b *Bitstream) Get(i int) int {
	b.check(i)
	return int(b.words[i/64] >> (uint(i) % 64) & 1)
}

// Set assigns bit i.
func (b *Bitstream) Set(i, v int) {
	b.check(i)
	mask := uint64(1) << (uint(i) % 64)
	if v != 0 {
		b.words[i/64] |= mask
	} else {
		b.words[i/64] &^= mask
	}
}

func (b *Bitstream) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("stochastic: bit index %d out of range [0,%d)", i, b.n))
	}
}

// Ones returns the number of set bits.
func (b *Bitstream) Ones() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Value returns the stochastic value: ones/length. An empty stream
// has value 0.
func (b *Bitstream) Value() float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.Ones()) / float64(b.n)
}

// Clone returns a deep copy.
func (b *Bitstream) Clone() *Bitstream {
	c := NewBitstream(b.n)
	copy(c.words, b.words)
	return c
}

// maskTail clears the unused high bits of the last word so popcounts
// stay correct after whole-word operations like Not.
func (b *Bitstream) maskTail() {
	if rem := uint(b.n % 64); rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

func (b *Bitstream) sameLen(o *Bitstream) {
	if b.n != o.n {
		panic(fmt.Sprintf("stochastic: length mismatch %d vs %d", b.n, o.n))
	}
}

// Mux selects per-slot between inputs according to sel: output bit i
// is inputs[sel.Get(i)].Get(i). With a select stream of value s this
// computes the scaled addition s·b + (1-s)·a for inputs (a, b).
func Mux(sel *Bitstream, inputs ...*Bitstream) *Bitstream {
	if len(inputs) != 2 {
		panic("stochastic: binary Mux needs exactly 2 inputs")
	}
	a, b := inputs[0], inputs[1]
	a.sameLen(b)
	a.sameLen(sel)
	out := NewBitstream(a.n)
	for i := range out.words {
		out.words[i] = (a.words[i] &^ sel.words[i]) | (b.words[i] & sel.words[i])
	}
	out.maskTail()
	return out
}

// String renders short streams as e.g. "0,1,1,0 (2/4)"; longer
// streams render the counts only.
func (b *Bitstream) String() string {
	if b.n <= 32 {
		parts := make([]string, b.n)
		for i := 0; i < b.n; i++ {
			parts[i] = fmt.Sprint(b.Get(i))
		}
		return fmt.Sprintf("%s (%d/%d)", strings.Join(parts, ","), b.Ones(), b.n)
	}
	return fmt.Sprintf("bitstream(%d/%d)", b.Ones(), b.n)
}
