package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The parity tests below call each kernel tier directly through its Kernel
// value — the Go tier is the reference — and demand bit-identical output:
// the tiers share one operation sequence, so any difference is a kernel
// bug, not rounding.

// goTier returns the portable reference tier.
func goTier() Kernel { return Kernels()[0] }

// fastTiers returns every registered tier other than the reference, so the
// parity tests are no-ops (and say so) on hosts with nothing to compare.
func fastTiers(t testing.TB) []Kernel {
	ks := Kernels()[1:]
	if len(ks) == 0 {
		t.Skip("no assembly kernel tier registered on this host")
	}
	return ks
}

// inverse is p.Inverse computed with tier k.
func inverse(k Kernel, p *Plan, dst, src []complex128) {
	p.load(dst, src)
	p.runTier(dst, p.inv, true, k.tier)
	p.normalize(dst)
}

// sameSpectrum reports the first index where a and b differ bit for bit,
// or -1.
func sameSpectrum(a, b []complex128) int {
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// signedZeroInput is a random trace whose components are ±0 at random:
// the cases where a reordered sum or a negation written as a subtraction
// would flip a zero's sign.
func signedZeroInput(rng *rand.Rand, n int) []complex128 {
	x := randComplex(rng, n)
	zero := [2]float64{0, math.Copysign(0, -1)}
	for i := range x {
		re, im := real(x[i]), imag(x[i])
		if rng.Intn(3) == 0 {
			re = zero[rng.Intn(2)]
		}
		if rng.Intn(3) == 0 {
			im = zero[rng.Intn(2)]
		}
		x[i] = complex(re, im)
	}
	return x
}

func TestKernelRegistry(t *testing.T) {
	ks := Kernels()
	if ks[0].Name() != "go" || ks[0].tier != tierGo {
		t.Fatalf("first registered tier is %q, want the portable go tier", ks[0].Name())
	}
	if last := ks[len(ks)-1]; last.tier != activeTier {
		t.Errorf("entry points dispatch to tier %d, want the last registered (%q)", activeTier, last.Name())
	}
	ks[0].name = "mutated"
	if Kernels()[0].Name() != "go" {
		t.Error("Kernels returned the registration table itself, not a copy")
	}
}

// TestX86HasAVX2 feeds the CPU check register values of hosts that must
// not get the AVX2 tier, next to one that must.
func TestX86HasAVX2(t *testing.T) {
	const (
		osxsaveAVX = cpuid1ECXOSXSAVE | cpuid1ECXAVX
		ymmState   = 0x7 // x87, XMM and YMM state enabled
	)
	cases := []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		want                      bool
	}{
		{"haswell", 0xd, 0x7ffafbff, 0x27ab, ymmState, true},
		{"sandy bridge: AVX but no AVX2", 0xd, 0x1fbae3ff, 0x0, ymmState, false},
		{"no leaf 7", 0x6, osxsaveAVX, cpuid7EBXAVX2, ymmState, false},
		{"OS does not save YMM state", 0xd, osxsaveAVX, cpuid7EBXAVX2, 0x3, false},
		{"OSXSAVE clear (XGETBV not read)", 0xd, cpuid1ECXAVX, cpuid7EBXAVX2, 0, false},
		{"AVX clear", 0xd, cpuid1ECXOSXSAVE, cpuid7EBXAVX2, ymmState, false},
		{"minimal AVX2 host", 7, osxsaveAVX, cpuid7EBXAVX2, 0x6, true},
	}
	for _, c := range cases {
		if got := x86HasAVX2(c.maxLeaf, c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: x86HasAVX2 = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRadix4KernelParity runs every radix-4 plan size from 16 to 16384
// forward and inverse through each tier on random, zero-padded and
// signed-zero inputs.
func TestRadix4KernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ref := goTier()
	for _, k := range fastTiers(t) {
		for n := 16; n <= 16384; n *= 4 {
			p := NewPlan(n)
			inputs := map[string][]complex128{
				"random":      randComplex(rng, n),
				"half-padded": randComplex(rng, n/2),
				"signed-zero": signedZeroInput(rng, n),
			}
			for name, src := range inputs {
				want := make([]complex128, n)
				got := make([]complex128, n)
				ref.Transform(p, want, src)
				k.Transform(p, got, src)
				if i := sameSpectrum(got, want); i >= 0 {
					t.Errorf("%s n=%d %s forward: bin %d = %v, go tier %v", k.Name(), n, name, i, got[i], want[i])
				}
				inverse(ref, p, want, src)
				inverse(k, p, got, src)
				if i := sameSpectrum(got, want); i >= 0 {
					t.Errorf("%s n=%d %s inverse: sample %d = %v, go tier %v", k.Name(), n, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTransformManyKernelParity checks the dispatching batch entry point
// against per-block transforms on the reference tier.
func TestTransformManyKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fastTiers(t)
	ref := goTier()
	for _, n := range []int{16, 256, 1024, 4096} {
		p := NewPlan(n)
		const blocks = 3
		slab := randComplex(rng, blocks*n)
		want := make([]complex128, len(slab))
		for b := 0; b < blocks; b++ {
			ref.Transform(p, want[b*n:(b+1)*n], slab[b*n:(b+1)*n])
		}
		p.TransformMany(slab)
		if i := sameSpectrum(slab, want); i >= 0 {
			t.Errorf("n=%d: slab bin %d = %v, go tier %v", n, i, slab[i], want[i])
		}
	}
}

// TestGoertzelKernelParity covers 0–12 frequencies — one and two ten-lane
// passes with every partial fill — over empty, one-, two- and three-sample
// windows and chirp-long even and odd ones.
func TestGoertzelKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ref := goTier()
	for _, k := range fastTiers(t) {
		for _, n := range []int{0, 1, 2, 3, 2457, 2458} {
			x := signedZeroInput(rng, n)
			for nf := 0; nf <= 12; nf++ {
				thetas := make([]float64, nf)
				for i := range thetas {
					thetas[i] = (rng.Float64()*2 - 1) * math.Pi
				}
				want := make([]complex128, nf)
				got := make([]complex128, nf+1)
				got[nf] = complex(math.NaN(), math.NaN()) // must stay untouched
				ref.GoertzelDFTMany(x, thetas, want)
				k.GoertzelDFTMany(x, thetas, got)
				if i := sameSpectrum(got[:nf], want); i >= 0 {
					t.Errorf("%s n=%d k=%d theta[%d]: %v, go tier %v", k.Name(), n, nf, i, got[i], want[i])
				}
				if !math.IsNaN(real(got[nf])) {
					t.Errorf("%s n=%d k=%d: wrote past len(thetas)", k.Name(), n, nf)
				}
			}
		}
	}
}

// TestSlidingKernelParity slides 0–12 bins by uneven hops — an empty one
// included — on each tier from the same Reset and compares every sum.
func TestSlidingKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ref := goTier()
	const n = 600
	x := signedZeroInput(rng, 2000)
	for _, k := range fastTiers(t) {
		for nb := 0; nb <= 12; nb++ {
			thetas := make([]float64, nb)
			for i := range thetas {
				thetas[i] = (rng.Float64()*2 - 1) * math.Pi
			}
			var want, got SlidingDFT
			want.Reset(x, 0, n, thetas)
			got.Reset(x, 0, n, thetas)
			for _, hop := range []int{1, 0, 7, 9, 64, 500} {
				want.advance(x, hop, ref.tier)
				got.advance(x, hop, k.tier)
				if got.Start() != want.Start() {
					t.Fatalf("%s bins=%d: start %d, go tier %d", k.Name(), nb, got.Start(), want.Start())
				}
				for i := 0; i < nb; i++ {
					if !sameBits(got.Sum(i), want.Sum(i)) {
						t.Errorf("%s bins=%d start=%d bin %d: %v, go tier %v", k.Name(), nb, got.Start(), i, got.Sum(i), want.Sum(i))
					}
				}
			}
		}
	}
}

// BenchmarkSlidingAdvance measures the onset detector's apex-refinement
// slide — nine bins moved nine samples per call over a chirp-long window —
// on each tier.
func BenchmarkSlidingAdvance(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	const n, hop = 2457, 9
	x := randComplex(rng, 2*n)
	thetas := make([]float64, 9)
	for i := range thetas {
		thetas[i] = 0.05 * float64(i+1)
	}
	for _, k := range Kernels() {
		b.Run(k.Name(), func(b *testing.B) {
			var s SlidingDFT
			s.Reset(x, 0, n, thetas)
			for b.Loop() {
				if s.Start()+hop+n > len(x) {
					s.Reset(x, 0, n, thetas)
				}
				s.advance(x, hop, k.tier)
			}
		})
	}
}

// TestKernelEntryPointsZeroAllocStackBuffers passes stack-backed buffers to
// the dispatching entry points: an assembly kernel whose pointer arguments
// escaped would move them to the heap and allocate on every call.
func TestKernelEntryPointsZeroAllocStackBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x := randComplex(rng, 2457)
	p := PlanFor(64)
	if allocs := testing.AllocsPerRun(20, func() {
		thetas := [9]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
		var out [9]complex128
		GoertzelDFTMany(x, thetas[:], out[:])
		var buf [64]complex128
		copy(buf[:], x)
		p.TransformInPlace(buf[:])
		p.InverseInPlace(buf[:])
	}); allocs != 0 {
		t.Errorf("entry points allocated %v times per run with stack buffers", allocs)
	}
}

// FuzzKernelParity decodes the fuzz input as complex samples and compares
// a 64-point transform (forward and inverse), a Goertzel evaluation and a
// sliding-DFT slide across tiers. Every output component that is not NaN
// must match bit for bit; NaN components — from NaN or ±Inf inputs, or
// from finite ones that overflow — are compared by NaN-ness only, because
// which NaN payload an operation propagates depends on its operand order,
// which the tiers (and the compiler's register allocation) do not fix.
func FuzzKernelParity(f *testing.F) {
	f.Add([]byte{}, 0.37)
	f.Add(make([]byte, 16*64), -1.0)
	seed := make([]byte, 16*70)
	rand.New(rand.NewSource(45)).Read(seed)
	f.Add(seed, 2.5)
	// Small samples plus three at the float64 limit: the 64-point
	// spectrum mixes finite, ±Inf and NaN bins, all from finite input.
	huge := make([]byte, 16*64)
	for i := 0; i < 64; i++ {
		re, im := float64(i%7)-3, float64(i%5)-2
		switch i {
		case 0:
			re, im = math.MaxFloat64, 0
		case 1:
			re, im = math.MaxFloat64, -math.MaxFloat64
		case 5:
			re, im = 0, math.MaxFloat64
		}
		binary.LittleEndian.PutUint64(huge[16*i:], math.Float64bits(re))
		binary.LittleEndian.PutUint64(huge[16*i+8:], math.Float64bits(im))
	}
	f.Add(huge, 1.0)
	ks := Kernels()
	ref := ks[0]
	p := NewPlan(64)
	f.Fuzz(func(t *testing.T, raw []byte, theta float64) {
		x := make([]complex128, min(len(raw)/16, 4*p.Size()))
		for i := range x {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			x[i] = complex(re, im)
		}
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			theta = 0
		}
		thetas := []float64{theta, theta / 2, -theta, 1, 2, 3, 0.5, -0.5, 0.25, -0.25, 3.1}
		seg := x[:min(len(x), p.Size())]
		same := func(a, b float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) {
				return math.IsNaN(a) && math.IsNaN(b)
			}
			return math.Float64bits(a) == math.Float64bits(b)
		}
		check := func(what string, got, want []complex128) {
			for i := range want {
				if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
					t.Fatalf("%s [%d]: %v, go tier %v", what, i, got[i], want[i])
				}
			}
		}
		want := make([]complex128, p.Size())
		got := make([]complex128, p.Size())
		wantG := make([]complex128, len(thetas))
		gotG := make([]complex128, len(thetas))
		ref.Transform(p, want, seg)
		ref.GoertzelDFTMany(x, thetas, wantG)
		for _, k := range ks[1:] {
			k.Transform(p, got, seg)
			check(fmt.Sprintf("%s forward", k.Name()), got, want)
			k.GoertzelDFTMany(x, thetas, gotG)
			check(fmt.Sprintf("%s goertzel", k.Name()), gotG, wantG)
		}
		inverse(ref, p, want, seg)
		for _, k := range ks[1:] {
			inverse(k, p, got, seg)
			check(fmt.Sprintf("%s inverse", k.Name()), got, want)
		}
		if n := len(x) / 2; n > 0 {
			var wantS SlidingDFT
			wantS.Reset(x, 0, n, thetas)
			wantS.advance(x, len(x)-n, ref.tier)
			for _, k := range ks[1:] {
				var gotS SlidingDFT
				gotS.Reset(x, 0, n, thetas)
				gotS.advance(x, len(x)-n, k.tier)
				check(fmt.Sprintf("%s slide", k.Name()), gotS.sums, wantS.sums)
			}
		}
	})
}
