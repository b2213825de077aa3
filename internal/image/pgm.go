package image

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// Gray is an 8-bit grayscale image in row-major order.
type Gray struct {
	W, H int
	Pix  []uint8
}

// NewGray allocates a zeroed image.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("image: invalid dimensions %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y).
func (g *Gray) At(x, y int) uint8 {
	g.check(x, y)
	return g.Pix[y*g.W+x]
}

// Set assigns the pixel at (x, y).
func (g *Gray) Set(x, y int, v uint8) {
	g.check(x, y)
	g.Pix[y*g.W+x] = v
}

func (g *Gray) check(x, y int) {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		panic(fmt.Sprintf("image: pixel (%d,%d) outside %dx%d", x, y, g.W, g.H))
	}
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	c := NewGray(g.W, g.H)
	copy(c.Pix, g.Pix)
	return c
}

// WritePGM encodes the image as binary PGM (P5, maxval 255).
func (g *Gray) WritePGM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", g.W, g.H); err != nil {
		return err
	}
	_, err := w.Write(g.Pix)
	return err
}

// ReadPGM decodes a P2 or P5 PGM stream with maxval <= 255. The pixel
// buffer grows with the bytes actually read, never from the header's
// claim, so a hostile header cannot allocate beyond the input: a P5
// raster must deliver exactly width*height bytes, a P2 one exactly
// width*height values.
func ReadPGM(r io.Reader) (*Gray, error) {
	br := bufio.NewReader(r)
	magic, err := pgmToken(br)
	if err != nil {
		return nil, fmt.Errorf("image: reading magic: %w", err)
	}
	if magic != "P2" && magic != "P5" {
		return nil, fmt.Errorf("image: unsupported PGM magic %q", magic)
	}
	var w, h, maxval int
	for _, dst := range []*int{&w, &h, &maxval} {
		tok, err := pgmToken(br)
		if err != nil {
			return nil, fmt.Errorf("image: reading header: %w", err)
		}
		if _, err := fmt.Sscan(tok, dst); err != nil {
			return nil, fmt.Errorf("image: bad header token %q: %w", tok, err)
		}
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("image: invalid dimensions %dx%d", w, h)
	}
	if maxval <= 0 || maxval > 255 {
		return nil, fmt.Errorf("image: unsupported maxval %d", maxval)
	}
	if h > math.MaxInt/w {
		return nil, fmt.Errorf("image: dimensions %dx%d overflow", w, h)
	}
	n := w * h
	if magic == "P5" {
		pix, err := io.ReadAll(io.LimitReader(br, int64(n)))
		if err != nil {
			return nil, fmt.Errorf("image: reading raster: %w", err)
		}
		if len(pix) != n {
			return nil, fmt.Errorf("image: raster has %d of %d bytes: %w", len(pix), n, io.ErrUnexpectedEOF)
		}
		return &Gray{W: w, H: h, Pix: pix}, nil
	}
	var pix []uint8
	for len(pix) < n {
		tok, err := pgmToken(br)
		if err != nil {
			return nil, fmt.Errorf("image: reading pixel %d: %w", len(pix), err)
		}
		var v int
		if _, err := fmt.Sscan(tok, &v); err != nil || v < 0 || v > maxval {
			return nil, fmt.Errorf("image: bad pixel %q", tok)
		}
		pix = append(pix, uint8(v))
	}
	return &Gray{W: w, H: h, Pix: pix}, nil
}

// pgmToken reads the next whitespace-delimited token, skipping
// '#'-comments as the PGM grammar requires.
func pgmToken(br *bufio.Reader) (string, error) {
	var sb strings.Builder
	for {
		b, err := br.ReadByte()
		if err != nil {
			if sb.Len() > 0 && err == io.EOF {
				return sb.String(), nil
			}
			return "", err
		}
		switch {
		case b == '#':
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if sb.Len() > 0 {
				return sb.String(), nil
			}
		default:
			sb.WriteByte(b)
		}
	}
}
