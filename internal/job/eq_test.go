package job

import (
	"math"
	"math/rand"
	"testing"
)

// eqWithMax is Eq as first written, with math.Max computing the scale.
// The branch-compare Eq must return the same answer for every input.
func eqWithMax(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= TimeEps*scale
}

func TestEqMatchesMaxFormulaSpecials(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	vals := []float64{
		0, negZero, sub, -sub, 2 * sub, 1e-310, -1e-310,
		1e-300, 1e-13, 1e-12, 1, 1 + 1e-13, 1 - 1e-13, -1, 2,
		1e12, 1e12 + 1, -1e12, math.MaxFloat64, -math.MaxFloat64,
		inf, -inf, nan, -nan,
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := Eq(a, b), eqWithMax(a, b); got != want {
				t.Errorf("Eq(%g, %g) = %v, math.Max formula %v", a, b, got, want)
			}
		}
	}
	// Spot-check the special cases' meaning, not just the agreement.
	for _, c := range []struct {
		a, b float64
		want bool
	}{
		{0, negZero, true}, {sub, -sub, true}, {inf, inf, false}, {inf, 1, true},
		{nan, nan, false}, {nan, 1, false}, {1, nan, false},
		{-inf, inf, true}, // an infinite scale tolerates any finite-or-infinite diff
	} {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEqMatchesMaxFormulaRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() float64 {
		switch rng.Intn(4) {
		case 0: // any bit pattern: NaNs, infinities, subnormals included
			return math.Float64frombits(rng.Uint64())
		case 1: // times of ordinary magnitude
			return (rng.Float64() - 0.25) * math.Pow(10, float64(rng.Intn(16)-4))
		default:
			return 0
		}
	}
	for i := 0; i < 200000; i++ {
		a := draw()
		b := a
		switch rng.Intn(3) {
		case 0:
			b = draw()
		case 1: // near-ties straddling the tolerance
			b = a * (1 + (rng.Float64()-0.5)*4e-12)
		case 2:
			b = a + (rng.Float64()-0.5)*4e-12
		}
		if got, want := Eq(a, b), eqWithMax(a, b); got != want {
			t.Fatalf("Eq(%v, %v) = %v, math.Max formula %v", a, b, got, want)
		}
	}
}
