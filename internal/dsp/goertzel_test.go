package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two complex values are identical bit for bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestGoertzelDFTManyBitIdentical pins the multi-frequency kernel of every
// registered tier to the scalar recurrence exactly: every theta count 0–10
// (so each remainder of the Go tier's three-chain grouping is hit) at
// lengths 0, 1, 2 and a chirp-long 2457-sample window.
func TestGoertzelDFTManyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, tier := range Kernels() {
		for _, n := range []int{0, 1, 2, 2457} {
			x := randComplex(rng, n)
			for k := 0; k <= 10; k++ {
				thetas := make([]float64, k)
				for i := range thetas {
					thetas[i] = (rng.Float64()*2 - 1) * math.Pi
				}
				// Poison the output so a skipped slot cannot pass by accident.
				out := make([]complex128, k+1)
				for i := range out {
					out[i] = complex(math.NaN(), math.NaN())
				}
				tier.GoertzelDFTMany(x, thetas, out)
				for i, th := range thetas {
					if want := GoertzelDFT(x, th); !sameBits(out[i], want) {
						t.Errorf("%s n=%d k=%d theta[%d]: got %v, want %v", tier.Name(), n, k, i, out[i], want)
					}
				}
				if v := out[k]; !math.IsNaN(real(v)) || !math.IsNaN(imag(v)) {
					t.Errorf("%s n=%d k=%d: wrote past len(thetas): %v", tier.Name(), n, k, v)
				}
			}
		}
	}
}

func TestGoertzelDFTManyZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	x := randComplex(rng, 2457)
	thetas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	out := make([]complex128, len(thetas))
	if allocs := testing.AllocsPerRun(20, func() {
		GoertzelDFTMany(x, thetas, out)
	}); allocs != 0 {
		t.Errorf("GoertzelDFTMany allocated %v times per run", allocs)
	}
}

// BenchmarkGoertzel9 compares the onset detector's nine-tone evaluation of
// one chirp-long window: nine scalar recurrences vs one GoertzelDFTMany on
// the dispatched tier ("many") and on each tier the host has ("go",
// "avx2").
func BenchmarkGoertzel9(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	x := randComplex(rng, 2457)
	thetas := make([]float64, 9)
	for i := range thetas {
		thetas[i] = 0.05 * float64(i+1)
	}
	out := make([]complex128, len(thetas))
	b.Run("scalar", func(b *testing.B) {
		for b.Loop() {
			for k, th := range thetas {
				out[k] = GoertzelDFT(x, th)
			}
		}
	})
	b.Run("many", func(b *testing.B) {
		for b.Loop() {
			GoertzelDFTMany(x, thetas, out)
		}
	})
	for _, k := range Kernels() {
		b.Run(k.Name(), func(b *testing.B) {
			for b.Loop() {
				k.GoertzelDFTMany(x, thetas, out)
			}
		})
	}
}
