package train

import (
	"math"
	"math/rand"
	"testing"
)

// naiveDotInto is the scalar loop DotInto replaced; the kernel must
// match it bit for bit (same accumulator, same order).
func naiveDotInto(dst, a, b []float64) float64 {
	var s float64
	for i := range dst {
		p := a[i] * b[i]
		dst[i] = p
		s += p
	}
	return s
}

func naiveAddScaledPair(dst1, dst2 []float64, scale float64, src []float64) {
	for i, x := range src {
		c := scale * x
		dst1[i] += c
		dst2[i] += c
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// TestDotIntoMatchesNaive sweeps every length through the unroll
// remainder (0..17) plus larger sizes: sums and per-element products
// must be bit-identical to the scalar loop — the EM fixture contract.
func TestDotIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 64, 100, 1023}
	for _, n := range lengths {
		a, b := randSlice(rng, n), randSlice(rng, n)
		got, want := make([]float64, n), make([]float64, n)
		gs := DotInto(got, a, b)
		ws := naiveDotInto(want, a, b)
		if gs != ws {
			t.Fatalf("n=%d: DotInto sum %v, naive %v", n, gs, ws)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: dst[%d] = %v, naive %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestAddScaledPairMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 100}
	for _, n := range lengths {
		src := randSlice(rng, n)
		scale := rng.NormFloat64()
		g1, g2 := randSlice(rng, n), randSlice(rng, n)
		w1, w2 := append([]float64(nil), g1...), append([]float64(nil), g2...)
		AddScaledPair(g1, g2, scale, src)
		naiveAddScaledPair(w1, w2, scale, src)
		for i := 0; i < n; i++ {
			if g1[i] != w1[i] || g2[i] != w2[i] {
				t.Fatalf("n=%d i=%d: got (%v,%v), naive (%v,%v)", n, i, g1[i], g2[i], w1[i], w2[i])
			}
		}
	}
}

// TestAddScaledMatchesPair: the fold-in E-step's one-destination
// kernel must leave exactly the sums AddScaledPair leaves in its first
// destination, and stay allocation-free.
func TestAddScaledMatchesPair(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 100} {
		src := randSlice(rng, n)
		scale := rng.NormFloat64()
		got := randSlice(rng, n)
		want, other := append([]float64(nil), got...), make([]float64, n)
		AddScaled(got, scale, src)
		AddScaledPair(want, other, scale, src)
		for i := 0; i < n; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d i=%d: got %v, pair kernel %v", n, i, got[i], want[i])
			}
		}
	}
	dst, src := make([]float64, 64), randSlice(rng, 64)
	if n := testing.AllocsPerRun(100, func() { AddScaled(dst, 0.5, src) }); n != 0 {
		t.Fatalf("AddScaled allocates %v times per run, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	AddScaled(make([]float64, 3), 1, make([]float64, 4))
}

func TestDotIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	DotInto(make([]float64, 3), make([]float64, 4), make([]float64, 3))
}

func TestAddScaledPairLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	AddScaledPair(make([]float64, 3), make([]float64, 4), 1, make([]float64, 3))
}

func TestKernelsAllocFree(t *testing.T) {
	a, b, dst := randSlice(rand.New(rand.NewSource(3)), 64), randSlice(rand.New(rand.NewSource(4)), 64), make([]float64, 64)
	if n := testing.AllocsPerRun(100, func() {
		DotInto(dst, a, b)
		AddScaledPair(dst, a, 0.5, b)
	}); n != 0 {
		t.Fatalf("kernels allocate %v times per run, want 0", n)
	}
}
