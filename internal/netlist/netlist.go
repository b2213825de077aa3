package netlist

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/optics"
	"repro/internal/stochastic"
)

// Deck is the parsed experiment description.
type Deck struct {
	Order     int
	SpacingNM float64
	Rings     string // "fig5" or "dense"
	Method    string // "mrr-first" or "mzi-first"
	MZIILdB   float64
	MZIERdB   float64
	PumpMW    float64
	ProbeMW   float64 // 0 = use the sized minimum
	TargetBER float64
	Poly      []float64
	FitGamma  float64 // 0 = use Poly
	InputX    float64
	Bits      int
	Seed      uint64
	Noise     bool
}

// DefaultDeck returns the §V.A-flavoured defaults.
func DefaultDeck() Deck {
	return Deck{
		Order:     2,
		SpacingNM: 1.0,
		Rings:     "fig5",
		Method:    "mrr-first",
		MZIILdB:   4.5,
		MZIERdB:   7.5,
		PumpMW:    600,
		TargetBER: 1e-6,
		InputX:    0.5,
		Bits:      4096,
		Seed:      1,
		Noise:     true,
	}
}

// Parse reads a deck, applying directives over the defaults.
func Parse(r io.Reader) (Deck, error) {
	d := DefaultDeck()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if err := d.apply(fields); err != nil {
			return Deck{}, fmt.Errorf("netlist: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return Deck{}, fmt.Errorf("netlist: %w", err)
	}
	if err := d.Validate(); err != nil {
		return Deck{}, err
	}
	return d, nil
}

func (d *Deck) apply(fields []string) error {
	key := strings.ToLower(fields[0])
	args := fields[1:]
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%q needs %d argument(s), got %d", key, n, len(args))
		}
		return nil
	}
	switch key {
	case "order":
		if err := need(1); err != nil {
			return err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("order: %w", err)
		}
		d.Order = n
	case "spacing":
		if err := need(1); err != nil {
			return err
		}
		return parseFloat(args[0], &d.SpacingNM)
	case "rings":
		if err := need(1); err != nil {
			return err
		}
		v := strings.ToLower(args[0])
		if v != "fig5" && v != "dense" {
			return fmt.Errorf("rings: unknown preset %q", args[0])
		}
		d.Rings = v
	case "method":
		if err := need(1); err != nil {
			return err
		}
		v := strings.ToLower(args[0])
		if v != "mrr-first" && v != "mzi-first" {
			return fmt.Errorf("method: unknown %q", args[0])
		}
		d.Method = v
	case "mzi":
		for _, a := range args {
			k, v, ok := strings.Cut(a, "=")
			if !ok {
				return fmt.Errorf("mzi: expected key=value, got %q", a)
			}
			switch strings.ToLower(k) {
			case "il":
				if err := parseFloat(v, &d.MZIILdB); err != nil {
					return err
				}
			case "er":
				if err := parseFloat(v, &d.MZIERdB); err != nil {
					return err
				}
			default:
				return fmt.Errorf("mzi: unknown key %q", k)
			}
		}
	case "pump":
		if err := need(1); err != nil {
			return err
		}
		return parseFloat(args[0], &d.PumpMW)
	case "probe":
		if err := need(1); err != nil {
			return err
		}
		return parseFloat(args[0], &d.ProbeMW)
	case "ber":
		if err := need(1); err != nil {
			return err
		}
		return parseFloat(args[0], &d.TargetBER)
	case "poly":
		if len(args) == 0 {
			return fmt.Errorf("poly: no coefficients")
		}
		d.Poly = make([]float64, len(args))
		for i, a := range args {
			if err := parseFloat(a, &d.Poly[i]); err != nil {
				return err
			}
		}
		d.FitGamma = 0
	case "fit":
		if len(args) != 2 || strings.ToLower(args[0]) != "gamma" {
			return fmt.Errorf("fit: expected 'fit gamma <g>'")
		}
		if err := parseFloat(args[1], &d.FitGamma); err != nil {
			return err
		}
		d.Poly = nil
	case "input":
		if err := need(1); err != nil {
			return err
		}
		return parseFloat(args[0], &d.InputX)
	case "bits":
		if err := need(1); err != nil {
			return err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("bits: %w", err)
		}
		d.Bits = n
	case "seed":
		if err := need(1); err != nil {
			return err
		}
		n, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		d.Seed = n
	case "noise":
		if err := need(1); err != nil {
			return err
		}
		switch strings.ToLower(args[0]) {
		case "on":
			d.Noise = true
		case "off":
			d.Noise = false
		default:
			return fmt.Errorf("noise: expected on|off, got %q", args[0])
		}
	default:
		return fmt.Errorf("unknown directive %q", key)
	}
	return nil
}

// parseFloat reads one finite number: strconv accepts "NaN" and "Inf",
// which no deck field can use.
func parseFloat(s string, dst *float64) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("bad number %q: %w", s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("bad number %q: not finite", s)
	}
	*dst = v
	return nil
}

// MaxBits caps a deck's stream length at 2²⁸ bits, a 32 MB output
// stream: past it a deck would ask for more memory than a simulation
// can sensibly allocate, up to a length the runtime rejects with a
// panic.
const MaxBits = 1 << 28

// Validate checks cross-field consistency.
func (d Deck) Validate() error {
	switch {
	case d.Order < 1:
		return fmt.Errorf("netlist: order %d < 1", d.Order)
	case !(d.SpacingNM > 0):
		return fmt.Errorf("netlist: spacing %g not positive", d.SpacingNM)
	case !(d.InputX >= 0 && d.InputX <= 1):
		return fmt.Errorf("netlist: input %g outside [0,1]", d.InputX)
	case d.Bits < 1:
		return fmt.Errorf("netlist: bits %d < 1", d.Bits)
	case d.Bits > MaxBits:
		return fmt.Errorf("netlist: bits %d > MaxBits %d", d.Bits, MaxBits)
	case !(d.TargetBER > 0 && d.TargetBER < 0.5):
		return fmt.Errorf("netlist: BER target %g outside (0, 0.5)", d.TargetBER)
	}
	if d.Poly != nil && len(d.Poly) != d.Order+1 {
		return fmt.Errorf("netlist: poly has %d coefficients for order %d", len(d.Poly), d.Order)
	}
	return nil
}

// Elaborated is the runnable experiment.
type Elaborated struct {
	Deck    Deck
	Params  core.Params
	Circuit *core.Circuit
	Poly    stochastic.BernsteinPoly
	Unit    *core.Unit
}

// Elaborate sizes the design, builds the circuit and the unit.
func Elaborate(d Deck) (*Elaborated, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	mod, fil := core.Fig5ModulatorShape(), core.Fig5FilterShape()
	if d.Rings == "dense" {
		mod, fil = core.DenseModulatorShape(), core.DenseFilterShape()
	}
	var (
		p   core.Params
		err error
	)
	switch d.Method {
	case "mzi-first":
		p, err = core.MZIFirst(core.MZIFirstSpec{
			Order:       d.Order,
			MZI:         optics.MZI{ILdB: d.MZIILdB, ERdB: d.MZIERdB},
			PumpPowerMW: d.PumpMW,
			TargetBER:   d.TargetBER,
			ModShape:    mod,
			FilterShape: fil,
		})
	default:
		p, err = core.MRRFirst(core.MRRFirstSpec{
			Order:       d.Order,
			WLSpacingNM: d.SpacingNM,
			MZIILdB:     d.MZIILdB,
			TargetBER:   d.TargetBER,
			ModShape:    mod,
			FilterShape: fil,
		})
	}
	if err != nil {
		return nil, err
	}
	if d.ProbeMW > 0 {
		p.ProbePowerMW = d.ProbeMW
	}
	c, err := core.NewCircuit(p)
	if err != nil {
		return nil, err
	}

	var poly stochastic.BernsteinPoly
	switch {
	case d.FitGamma > 0:
		poly, _, err = stochastic.GammaCorrection(d.FitGamma, d.Order)
		if err != nil {
			return nil, err
		}
	case d.Poly != nil:
		poly = stochastic.NewBernstein(d.Poly)
	default:
		// A representative default: increasing ramp coefficients.
		coef := make([]float64, d.Order+1)
		for i := range coef {
			coef[i] = float64(i+1) / float64(d.Order+2)
		}
		poly = stochastic.NewBernstein(coef)
	}
	u, err := core.NewUnit(c, poly, d.Seed)
	if err != nil {
		return nil, err
	}
	return &Elaborated{Deck: d, Params: p, Circuit: c, Poly: poly, Unit: u}, nil
}
