package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxSpectrumDiff(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// TestPlanMatchesFFTAllSizes cross-checks the planned transform against the
// allocating FFT/IFFT on random inputs for every length 2..4096, covering
// both power-of-two sizes and the zero-padding parity of everything in
// between.
func TestPlanMatchesFFTAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 2; n <= 4096; n++ {
		x := randComplex(rng, n)
		want := FFT(x)
		plan := PlanFor(n)
		if plan.Size() != NextPow2(n) {
			t.Fatalf("n=%d: plan size %d, want %d", n, plan.Size(), NextPow2(n))
		}
		got := make([]complex128, plan.Size())
		plan.Transform(got, x)
		if d := maxSpectrumDiff(got, want); d > 1e-9 {
			t.Fatalf("n=%d: planned FFT deviates from FFT by %g", n, d)
		}
		// Inverse parity against IFFT on the (padded) spectrum.
		wantInv := IFFT(got)
		gotInv := make([]complex128, plan.Size())
		plan.Inverse(gotInv, got)
		if d := maxSpectrumDiff(gotInv, wantInv); d > 1e-9 {
			t.Fatalf("n=%d: planned IFFT deviates from IFFT by %g", n, d)
		}
	}
}

// TestPlanRoundTrip checks Transform → Inverse recovers the (zero-padded)
// input across all power-of-two sizes up to 4096.
func TestPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= 4096; n <<= 1 {
		plan := NewPlan(n)
		x := randComplex(rng, n)
		buf := make([]complex128, n)
		copy(buf, x)
		plan.TransformInPlace(buf)
		plan.InverseInPlace(buf)
		for i := range x {
			if d := cmplx.Abs(buf[i] - x[i]); d > 1e-9 {
				t.Fatalf("n=%d: round-trip error %g at sample %d", n, d, i)
			}
		}
	}
}

// TestPlanMatchesNaiveDFT anchors the plan against the O(n²) definition at
// a few sizes, independent of the legacy FFT implementation.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 8, 64, 256} {
		x := randComplex(rng, n)
		want := naiveDFT(x)
		got := make([]complex128, n)
		NewPlan(n).Transform(got, x)
		if d := maxSpectrumDiff(got, want); d > 1e-7*float64(n) {
			t.Fatalf("n=%d: planned FFT deviates from naive DFT by %g", n, d)
		}
	}
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlan(12) did not panic")
		}
	}()
	NewPlan(12)
}

// TestPlanZeroAlloc asserts the planned transforms never allocate after
// warm-up — the contract the per-worker gateway pipelines rely on.
func TestPlanZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plan := PlanFor(1024)
	src := randComplex(rng, 1000) // exercises the zero-padding path too
	dst := make([]complex128, plan.Size())
	if allocs := testing.AllocsPerRun(100, func() {
		plan.Transform(dst, src)
	}); allocs != 0 {
		t.Errorf("Plan.Transform allocated %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		plan.TransformInPlace(dst)
	}); allocs != 0 {
		t.Errorf("Plan.TransformInPlace allocated %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		plan.InverseInPlace(dst)
	}); allocs != 0 {
		t.Errorf("Plan.InverseInPlace allocated %v times per run", allocs)
	}
}

// TestSpectrogramPlanMatchesSpectrogram checks the planned spectrogram
// against the one-shot API, including row reuse across calls.
func TestSpectrogramPlanMatchesSpectrogram(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randComplex(rng, 1500)
	w := KaiserWindow(128, 8)
	want := Spectrogram(x, w, 16)
	sp := NewSpectrogramPlan(w, 16)
	var got [][]float64
	for pass := 0; pass < 2; pass++ { // second pass reuses rows
		got = sp.Compute(x, got)
	}
	if len(got) != len(want) {
		t.Fatalf("frames: got %d, want %d", len(got), len(want))
	}
	for f := range want {
		for b := range want[f] {
			if d := math.Abs(got[f][b] - want[f][b]); d > 1e-9*(1+want[f][b]) {
				t.Fatalf("frame %d bin %d: got %g, want %g", f, b, got[f][b], want[f][b])
			}
		}
	}
	if n := sp.Frames(len(x)); n != len(want) {
		t.Fatalf("Frames(%d) = %d, want %d", len(x), n, len(want))
	}
}

// TestPeakBinSq anchors the squared-magnitude scanner against a direct
// magnitude scan.
func TestPeakBinSq(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	spec := randComplex(rng, 257)
	bin, magSq := PeakBinSq(spec)
	wantBin, wantMag := 0, 0.0
	for i, v := range spec {
		if m := cmplx.Abs(v); m > wantMag {
			wantMag = m
			wantBin = i
		}
	}
	if bin != wantBin {
		t.Fatalf("bins disagree: %d vs %d", bin, wantBin)
	}
	if d := math.Abs(wantMag*wantMag - magSq); d > 1e-9*(1+magSq) {
		t.Fatalf("magnitude mismatch: |X|²=%g, want %g", magSq, wantMag*wantMag)
	}
}

// TestDechirpDecimatedPreservesTone drives the boxcar-decimated dechirp
// path with a synthetic chirp+tone whose dechirped product is a pure tone
// landing exactly on both the full-rate and the decimated bin grid, and
// checks (a) the decimated peak sits at the same frequency, (b) the
// droop-compensated peak power matches the full-rate transform's — i.e. the
// decimation loses none of the despreading gain.
func TestDechirpDecimatedPreservesTone(t *testing.T) {
	const n = 2048
	const d = 4
	const rate = 1e6
	phase := make([]float64, n)
	for i := range phase {
		ti := float64(i) / rate
		phase[i] = 2 * math.Pi * 3e4 * ti * ti * rate / 100 // arbitrary quadratic
	}
	// Tone on both grids: full nfft = 2048, decimated nfft = 512, and the
	// bin widths in Hz coincide (rate/2048 = (rate/4)/512), so the peak
	// lands on the same bin index in both spectra.
	const bin = 40
	f0 := float64(bin) / 2048 // cycles per full-rate sample
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, phase[i]+2*math.Pi*f0*float64(i)))
	}
	var s DechirpScratch[int]
	s.Init(1, n, rate, 1, phase)
	full := s.Dechirp(x)
	fullBin, fullSq := PeakBinSq(full)
	if fullBin != bin {
		t.Fatalf("full-rate peak at bin %d, want %d", fullBin, bin)
	}
	dec := s.DechirpDecimated(x, d)
	if len(dec) != 512 {
		t.Fatalf("decimated spectrum length %d, want 512", len(dec))
	}
	decBin, decSq := PeakBinSq(dec)
	if decBin != bin {
		t.Fatalf("decimated peak at bin %d, want %d", decBin, bin)
	}
	droop := BoxcarDroopSq(d, f0)
	if ratio := decSq / droop / fullSq; math.Abs(ratio-1) > 0.01 {
		t.Errorf("droop-compensated decimated peak power off by %.3f× (droop %.4f)", ratio, droop)
	}
	// Repeated calls must reuse the lazily built decimated scratch.
	if allocs := testing.AllocsPerRun(20, func() {
		s.DechirpDecimated(x, d)
	}); allocs != 0 {
		t.Errorf("DechirpDecimated allocated %v times per run in steady state", allocs)
	}
	// d=1 degenerates to the full-rate path.
	if got := s.DechirpDecimated(x, 1); len(got) != len(full) {
		t.Errorf("d=1 spectrum length %d, want %d", len(got), len(full))
	}
}

func TestBoxcarDroopSq(t *testing.T) {
	if g := BoxcarDroopSq(1, 0.3); g != 1 {
		t.Errorf("d=1 droop = %g, want 1", g)
	}
	if g := BoxcarDroopSq(4, 0); g != 1 {
		t.Errorf("DC droop = %g, want 1", g)
	}
	// Analytic check at f=1/8, d=4: |sin(π/2)/(4·sin(π/8))|².
	want := math.Pow(1/(4*math.Sin(math.Pi/8)), 2)
	if g := BoxcarDroopSq(4, 0.125); math.Abs(g-want) > 1e-12 {
		t.Errorf("droop(4, 1/8) = %g, want %g", g, want)
	}
	// Monotone decay toward the first null within the decimated band.
	if !(BoxcarDroopSq(4, 0.05) > BoxcarDroopSq(4, 0.1)) {
		t.Error("droop must decay with |f|")
	}
}

// TestOverlapSaveMatchesDirectFIR checks the FFT overlap-save convolution
// against the direct form across sizes straddling the switch-over, at both
// edges and interior.
func TestOverlapSaveMatchesDirectFIR(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1040, 4096, 9000, 20000} {
		x := randComplex(rng, n)
		f := LowPassFIR(100e3, 2.4e6, 129)
		got := f.Apply(x) // overlap-save path (n >= 8m)
		direct := &FIRFilter{Taps: f.Taps}
		want := make([]complex128, n)
		m := len(f.Taps)
		delay := m / 2
		for i := 0; i < n; i++ {
			var acc complex128
			for j := 0; j < m; j++ {
				k := i + delay - j
				if k < 0 || k >= n {
					continue
				}
				acc += x[k] * complex(direct.Taps[j], 0)
			}
			want[i] = acc
		}
		worst := 0.0
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > worst {
				worst = d
			}
		}
		if worst > 1e-10 {
			t.Errorf("n=%d: overlap-save deviates from direct by %g", n, worst)
		}
	}
}
