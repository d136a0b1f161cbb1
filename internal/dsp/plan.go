package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan holds the precomputed state for FFTs of one fixed power-of-two size:
// the input permutation and the per-stage twiddle factors. Building a Plan
// costs O(n); every transform through it then runs without allocating and
// without recomputing trigonometry, which is what makes the per-uplink
// sliding-window scans of package core cheap.
//
// Sizes whose log2 is even (4, 16, 64, …, 4096, 16384) run a radix-4
// kernel — one complex multiply per four outputs fewer than radix-2, ~25 %
// fewer multiplies overall — which covers every hot gateway size (the
// chirp-window 4096, the 4×-padded 16384, the decimated-scan 1024 and the
// spectrogram 256). Odd-log2 sizes fall back to the radix-2 kernel.
//
// A radix-4 Transform or Inverse into a separate dst makes its first pass
// while loading src: it reads the strided quadruples src[r], src[r+n/4],
// src[r+n/2], src[r+3n/4], runs the size-4 butterfly on each and stores
// the four outputs where the digit-reversal permutation followed by the
// size-4 stage would have put them, so neither the permutation nor a
// zero-filled tail is ever written. The in-place entries (and a dst that
// is src) permute with swaps first. On hosts with the AVX2 kernel tier
// (see Kernel) the fused first pass and every later radix-4 stage run two
// butterflies per instruction; every path is bit-identical to the Go
// kernel's in-place transform.
//
// A Plan is immutable after construction and safe for concurrent use by
// multiple goroutines — only the caller-supplied buffers are mutated. The
// scratch buffers a caller pairs with a Plan (see the consumers in package
// core) are NOT shareable: one scratch set per goroutine.
type Plan struct {
	n      int
	radix4 bool
	perm   []int32      // bit-reversal (radix-2) or base-4 digit-reversal targets
	fwd    []complex128 // exp(-2πik/n); k < n/2 (radix-2) or k < 3n/4 (radix-4)
	inv    []complex128 // exp(+2πik/n), same length as fwd

	// stageFwd and stageInv are fwd and inv regrouped for the AVX2 radix-4
	// kernel, built only when that tier is registered: the stages of
	// quarter q = 4, 16, …, n/4 in order, each as q/2 runs of six entries
	// W^k, W^(k+1), W^2k, W^2(k+1), W^3k, W^3(k+1) for k = 0, 2, …, q−2,
	// where W^m is the stage's twiddle m·(n/4q). Every entry is copied from
	// fwd/inv, so both kernels multiply by the same values.
	stageFwd []complex128
	stageInv []complex128
}

// NewPlan builds a plan for n-point transforms. n must be a positive power
// of two.
func NewPlan(n int) *Plan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: NewPlan size %d is not a power of two", n))
	}
	log2 := bits.Len(uint(n)) - 1
	p := &Plan{n: n, radix4: n >= 4 && log2%2 == 0}
	p.perm = make([]int32, n)
	if p.radix4 {
		// Base-4 digit reversal: the radix-4 DIT stages consume the input
		// with its base-4 digits reversed, exactly as radix-2 needs bit
		// reversal.
		for i := 0; i < n; i++ {
			r := 0
			for j := 0; j < log2; j += 2 {
				r = r<<2 | (i>>j)&3
			}
			p.perm[i] = int32(r)
		}
	} else if n > 1 {
		shift := bits.UintSize - uint(bits.Len(uint(n-1)))
		for i := 0; i < n; i++ {
			p.perm[i] = int32(bits.Reverse(uint(i)) >> shift)
		}
	}
	// The radix-4 butterflies reach twiddle exponents up to 3k with
	// k < n/4, so their table spans 3n/4 entries; radix-2 needs n/2.
	twLen := n / 2
	if p.radix4 {
		twLen = 3 * n / 4
	}
	p.fwd = make([]complex128, twLen)
	p.inv = make([]complex128, twLen)
	for k := 0; k < twLen; k++ {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.fwd[k] = complex(c, s)
		p.inv[k] = complex(c, -s)
	}
	if p.radix4 && n >= 16 && activeTier == tierAVX2 {
		p.stageFwd = radix4StageTable(p.fwd, n)
		p.stageInv = radix4StageTable(p.inv, n)
	}
	return p
}

// radix4StageTable regroups a radix-4 plan's twiddle table tw into the
// per-stage layout of Plan.stageFwd.
func radix4StageTable(tw []complex128, n int) []complex128 {
	tab := make([]complex128, 0, n)
	for q := 4; 4*q <= n; q <<= 2 {
		stride := n / (4 * q)
		for k := 0; k < q; k += 2 {
			t0, t1 := k*stride, (k+1)*stride
			tab = append(tab, tw[t0], tw[t1], tw[2*t0], tw[2*t1], tw[3*t0], tw[3*t1])
		}
	}
	return tab
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// Radix reports which butterfly kernel the plan runs: 4 for even-log2 sizes,
// 2 for the fallback.
func (p *Plan) Radix() int {
	if p.radix4 {
		return 4
	}
	return 2
}

// Transform computes the forward DFT of src into dst without allocating.
// len(dst) must equal the plan size; src may be shorter (it is zero-padded)
// but not longer. dst and src may alias only if they are the same slice.
//
//softlora:hotpath
//softlora:allocfree
func (p *Plan) Transform(dst, src []complex128) {
	p.transform(dst, src, false, activeTier)
}

// TransformInPlace computes the forward DFT of buf in place. len(buf) must
// equal the plan size.
//
//softlora:hotpath
//softlora:allocfree
func (p *Plan) TransformInPlace(buf []complex128) {
	p.checkLen(buf)
	p.run(buf, p.fwd, false)
}

// Inverse computes the normalized inverse DFT of src into dst without
// allocating, under the same length rules as Transform.
func (p *Plan) Inverse(dst, src []complex128) {
	p.transform(dst, src, true, activeTier)
	p.normalize(dst)
}

// InverseInPlace computes the normalized inverse DFT of buf in place.
// len(buf) must equal the plan size.
func (p *Plan) InverseInPlace(buf []complex128) {
	p.checkLen(buf)
	p.run(buf, p.inv, true)
	p.normalize(buf)
}

func (p *Plan) checkLen(buf []complex128) {
	if len(buf) != p.n {
		panic(fmt.Sprintf("dsp: plan size %d, buffer length %d", p.n, len(buf)))
	}
}

// transform is Transform (inverse false) or Inverse before normalization
// on the given kernel tier. A radix-4 plan with a dst separate from src
// runs the fused first pass (loadRadix4); everything else copies src into
// dst, zero-pads the tail and transforms in place.
func (p *Plan) transform(dst, src []complex128, inverse bool, tier kernelTier) {
	p.checkLen(dst)
	if len(src) > p.n {
		panic(fmt.Sprintf("dsp: plan size %d, source length %d", p.n, len(src)))
	}
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	if p.radix4 && (len(src) == 0 || &dst[0] != &src[0]) {
		p.loadRadix4(dst, src, tw, inverse, tier)
		p.radix4Stages(dst, tw, inverse, tier)
		return
	}
	if len(src) > 0 && &dst[0] != &src[0] {
		copy(dst, src)
	}
	for i := len(src); i < p.n; i++ {
		dst[i] = 0
	}
	p.runTier(dst, tw, inverse, tier)
}

func (p *Plan) normalize(buf []complex128) {
	inv := complex(1/float64(p.n), 0)
	for i := range buf {
		buf[i] *= inv
	}
}

// run permutes the input and executes the butterfly stages with table
// twiddles. The table lookup replaces the running product w *= wBase of the
// unplanned FFT, which both removes the per-butterfly complex multiply and
// stops rounding error from accumulating across a stage. Both permutations
// (bit reversal and base-4 digit reversal) are involutions, so the in-place
// swap loop needs no scratch.
//
//softlora:hotpath
func (p *Plan) run(x []complex128, tw []complex128, inverse bool) {
	p.runTier(x, tw, inverse, activeTier)
}

// runTier is run on the given kernel tier. The tier only changes how the
// radix-4 stages of quarter ≥ 4 execute, never their arithmetic.
//
//softlora:hotpath
func (p *Plan) runTier(x []complex128, tw []complex128, inverse bool, tier kernelTier) {
	n := p.n
	if n <= 1 {
		return
	}
	for i, pi := range p.perm {
		if j := int(pi); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	if p.radix4 {
		p.runRadix4(x, tw, inverse, 4, 4) // the size-4 stage
		p.radix4Stages(x, tw, inverse, tier)
		return
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				a := x[k]
				b := x[k+half] * tw[ti]
				x[k] = a + b
				x[k+half] = a - b
				ti += stride
			}
		}
	}
}

// radix4Stages runs the radix-4 stages of size 16 through n over x, whose
// size-4 stage is done, on the given tier.
func (p *Plan) radix4Stages(x []complex128, tw []complex128, inverse bool, tier kernelTier) {
	if p.n < 16 {
		return
	}
	if tier == tierAVX2 {
		stages := p.stageFwd
		if inverse {
			stages = p.stageInv
		}
		radix4AVX2(x, stages, inverse)
		return
	}
	p.runRadix4(x, tw, inverse, 16, p.n)
}

// loadRadix4 is the out-of-place first pass of a radix-4 transform: for
// each r < q = n/4 it reads the quadruple src[r], src[r+q], src[r+2q],
// src[r+3q] (zero past len(src)), runs the size-4 butterfly on it with the
// operands of runRadix4's size-4 stage and stores the four outputs at
// dst[perm[r]+k], k = 0…3 — exactly where the digit-reversal permutation
// followed by that stage puts them, since perm[r+k·q] = perm[r]+k.
//
// The r range splits into runs with a fixed number of rows inside src
// (rows r+k·q < len(src) for k < live), which is what the AVX2 kernel
// consumes; past the last run every row is zero padding.
func (p *Plan) loadRadix4(dst, src []complex128, tw []complex128, inverse bool, tier kernelTier) {
	q := p.n / 4
	lo := 0
	for live := 4; live > 0; live-- {
		hi := min(max(len(src)-(live-1)*q, 0), q)
		if hi <= lo {
			continue
		}
		if tier == tierAVX2 {
			if lo&1 == 1 { // the kernel takes pairs r, r+1 with r even
				p.loadRadix4Go(dst, src, tw[0], inverse, lo, lo+1, live)
				lo++
			}
			if pairs := (hi - lo) &^ 1; pairs > 0 {
				radix4LoadAVX2(dst, p.perm[lo:lo+pairs], src[lo:], q, live, tw, inverse)
				lo += pairs
			}
		}
		p.loadRadix4Go(dst, src, tw[0], inverse, lo, hi, live)
		lo = hi
	}
	// Four zero inputs: the butterfly's outputs are all +0, whatever the
	// direction and the sign of tw[0]'s zero.
	for _, o := range p.perm[lo:q] {
		dst[o], dst[o+1], dst[o+2], dst[o+3] = 0, 0, 0, 0
	}
}

// loadRadix4Go is loadRadix4's Go kernel for r in [lo, hi), where the
// rows k < live lie inside src and the rest are zero; w is the size-4
// stage's twiddle tw[0].
func (p *Plan) loadRadix4Go(dst, src []complex128, w complex128, inverse bool, lo, hi, live int) {
	q := p.n / 4
	for r := lo; r < hi; r++ {
		var b, c, d complex128
		a := src[r]
		if live > 1 {
			b = src[r+q]
		}
		if live > 2 {
			c = src[r+2*q]
		}
		if live > 3 {
			d = src[r+3*q]
		}
		o := int(p.perm[r])
		dst[o], dst[o+1], dst[o+2], dst[o+3] = butterfly4(a, b*w, c*w, d*w, inverse)
	}
}

// butterfly4 is the radix-4 decimation-in-time butterfly on the
// twiddled quarter outputs a, b·W^k, c·W^2k, d·W^3k:
//
//	X[k]      = t0 + t2        t0 = a + c    t2 = b + d
//	X[k+q]    = t1 ∓ j·t3      t1 = a − c    t3 = b − d
//	X[k+2q]   = t0 − t2
//	X[k+3q]   = t1 ± j·t3
//
// where the ∓j factor flips sign between the forward and inverse transforms
// (it is the quarter-turn twiddle W^{n/4} = −j, conjugated for the inverse).
func butterfly4(a, b, c, d complex128, inverse bool) (x0, x1, x2, x3 complex128) {
	t0 := a + c
	t1 := a - c
	t2 := b + d
	t3 := b - d
	// jt3 = −j·t3 for the forward transform, +j·t3 inverse.
	var jt3 complex128
	if inverse {
		jt3 = complex(-imag(t3), real(t3))
	} else {
		jt3 = complex(imag(t3), -real(t3))
	}
	return t0 + t2, t1 + jt3, t0 - t2, t1 - jt3
}

// runRadix4 executes the radix-4 decimation-in-time stages of size from
// through to (powers of four) on digit-reversed input, one butterfly4 per
// quadruple x[i], x[i+q], x[i+2q], x[i+3q] of each stage's blocks.
func (p *Plan) runRadix4(x []complex128, tw []complex128, inverse bool, from, to int) {
	n := p.n
	for size := from; size <= to; size <<= 2 {
		quarter := size >> 2
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < quarter; k++ {
				i0 := start + k
				i1 := i0 + quarter
				i2 := i1 + quarter
				i3 := i2 + quarter
				ti := k * stride
				x[i0], x[i1], x[i2], x[i3] = butterfly4(x[i0], x[i1]*tw[ti], x[i2]*tw[2*ti], x[i3]*tw[3*ti], inverse)
			}
		}
	}
}

// planCache shares immutable plans across the process. Plans are read-only,
// so handing the same *Plan to many goroutines is safe; per-goroutine state
// lives in the callers' scratch buffers, never in the plan.
var planCache sync.Map // int -> *Plan

// PlanFor returns a process-cached plan for transforms of length NextPow2(n).
// The returned plan is shared: treat it as read-only.
func PlanFor(n int) *Plan {
	size := NextPow2(n)
	if v, ok := planCache.Load(size); ok {
		return v.(*Plan)
	}
	v, _ := planCache.LoadOrStore(size, NewPlan(size))
	return v.(*Plan)
}

// DechirpScratch is the shared scratch shape behind the dechirping
// detectors, estimators and the demodulator: a conjugate chirp template
// with a padded FFT plan and work buffer, invalidated when the chirp
// geometry (length, sample rate, or the caller's comparable key — channel
// params) changes. One instance per goroutine.
type DechirpScratch[K comparable] struct {
	n    int
	rate float64
	key  K
	conj []complex128 // exp(-j·templatePhase[i])
	prod []complex128 // dechirped segment, template length
	plan *Plan
	buf  []complex128 // plan-sized FFT buffer

	// Decimated-path scratch (DechirpDecimated), built lazily on first use
	// and invalidated with the rest of the scratch on Init.
	decFactor int
	decPlan   *Plan
	decTime   []complex128 // decimated dechirp, n/decFactor samples
	decBuf    []complex128 // decPlan-sized FFT buffer
}

// Stale reports whether the scratch must be rebuilt for this geometry.
// Callers check it first so template phases are only computed (and
// allocated) on an actual rebuild, keeping the steady state alloc-free.
func (s *DechirpScratch[K]) Stale(key K, n int, rate float64) bool {
	return s.n != n || s.rate != rate || s.key != key
}

// Init rebuilds the template exp(-j·phase[i]) and sizes the FFT plan and
// buffer for pad·n-point transforms.
func (s *DechirpScratch[K]) Init(key K, n int, rate float64, pad int, phase []float64) {
	if cap(s.conj) < n {
		s.conj = make([]complex128, n)
	}
	s.conj = s.conj[:n]
	if cap(s.prod) < n {
		s.prod = make([]complex128, n)
	}
	s.prod = s.prod[:n]
	for i, p := range phase[:n] {
		sn, c := math.Sincos(-p)
		s.conj[i] = complex(c, sn)
	}
	s.plan = PlanFor(pad * n)
	if cap(s.buf) < s.plan.Size() {
		s.buf = make([]complex128, s.plan.Size())
	}
	s.buf = s.buf[:s.plan.Size()]
	s.n, s.rate, s.key = n, rate, key
	s.decFactor = 0 // geometry changed: rebuild the decimated plan on demand
}

// Size returns the scratch's FFT length (0 before Init).
func (s *DechirpScratch[K]) Size() int {
	if s.plan == nil {
		return 0
	}
	return s.plan.Size()
}

// Dechirp multiplies seg (length <= template) by the template into a
// template-length scratch and transforms that, zero-padded, into the FFT
// buffer, returning the spectrum. The returned slice is the scratch
// buffer: it is overwritten by the next call.
func (s *DechirpScratch[K]) Dechirp(seg []complex128) []complex128 {
	prod := s.prod[:len(seg)]
	for i, v := range seg {
		prod[i] = v * s.conj[i]
	}
	s.plan.Transform(s.buf, prod)
	return s.buf
}

// DechirpDecimated dechirps seg at full rate, sums adjacent groups of d
// samples (boxcar decimation) and transforms the n/d-point result through a
// proportionally smaller FFT plan. Unlike plain subsampling, the boxcar
// keeps every sample in the coherent sum, so the despreading gain of the
// full window is preserved; the price is the boxcar's sinc-shaped droop
// over the decimated band (compensate per bin with BoxcarDroopSq). seg must
// be at least n samples (the template length). The returned slice is the
// decimated scratch buffer, overwritten by the next call; its spectrum
// covers ±rate/(2d), so d must leave the dechirped tones inside that band.
//
// The decimated plan/buffer are built on the first call for a given d after
// Init and reused afterwards, keeping repeated calls allocation-free.
func (s *DechirpScratch[K]) DechirpDecimated(seg []complex128, d int) []complex128 {
	if d <= 1 {
		return s.Dechirp(seg[:s.n])
	}
	m := s.n / d
	if s.decFactor != d {
		//softlora:allocfree-ok geometry rebuild on a decimation-factor change; steady state reuses the cached plan
		s.decPlan = PlanFor(m)
		if cap(s.decBuf) < s.decPlan.Size() {
			//softlora:allocfree-ok same geometry rebuild; the buffers are reused until the factor changes again
			s.decBuf = make([]complex128, s.decPlan.Size())
		}
		if cap(s.decTime) < m {
			//softlora:allocfree-ok same geometry rebuild
			s.decTime = make([]complex128, m)
		}
		s.decBuf = s.decBuf[:s.decPlan.Size()]
		s.decFactor = d
	}
	s.decPlan.Transform(s.decBuf, s.DechirpDecimateInto(s.decTime, seg, d))
	return s.decBuf
}

// DechirpDecimateInto is the time-domain half of DechirpDecimated: it
// dechirps seg against the template and boxcar-sums adjacent groups of d
// samples into dst, returning dst[:n/d] without transforming. Callers that
// need both the decimated spectrum and the decimated time series (the FB
// estimator's coarse FFT + zoom refinement) use this once and transform it
// out of place, keeping the time series intact. dst must have capacity
// ≥ n/d; the last n mod d samples of the template window are dropped.
func (s *DechirpScratch[K]) DechirpDecimateInto(dst []complex128, seg []complex128, d int) []complex128 {
	dst = dst[:s.n/d]
	decimate(dst, seg, s.conj, d, activeTier)
	return dst
}

// decimate sets dst[i] to the sum of seg[i·d+r]·conj[i·d+r] over r < d,
// accumulated as ((0 + p0) + p1) + … in that order, on the given kernel
// tier. The AVX2 kernel runs eight outputs' sums side by side, so its
// accumulation chains overlap instead of waiting on one another; the last
// len(dst) mod 8 outputs run in Go.
func decimate(dst, seg, conj []complex128, d int, tier kernelTier) {
	i := 0
	if tier == tierAVX2 {
		if i = len(dst) &^ 7; i > 0 {
			decimateAVX2(dst[:i], seg[:i*d], conj[:i*d], d)
		}
	}
	for ; i < len(dst); i++ {
		var acc complex128
		base := i * d
		for r := 0; r < d; r++ {
			acc += seg[base+r] * conj[base+r]
		}
		dst[i] = acc
	}
}

// SpectrogramPlan computes short-time Fourier transform power spectrograms
// repeatedly with one window function and one cached FFT plan, reusing its
// internal frame buffers across calls. Not safe for concurrent use — build
// one per goroutine (the shared FFT plan underneath is safe to share).
type SpectrogramPlan struct {
	window  []float64
	overlap int
	plan    *Plan
	frame   []complex128 // one windowed frame, window length
	buf     []complex128 // its plan-sized spectrum
}

// NewSpectrogramPlan builds a spectrogram plan for the given window function
// and inter-frame overlap (in samples).
func NewSpectrogramPlan(window []float64, overlap int) *SpectrogramPlan {
	plan := PlanFor(len(window))
	return &SpectrogramPlan{
		window:  append([]float64(nil), window...),
		overlap: overlap,
		plan:    plan,
		frame:   make([]complex128, len(window)),
		buf:     make([]complex128, plan.Size()),
	}
}

// hop returns the inter-frame stride in samples (>= 1).
func (s *SpectrogramPlan) hop() int {
	h := len(s.window) - s.overlap
	if h < 1 {
		h = 1
	}
	return h
}

// Frames returns how many spectrogram frames Compute produces for a trace of
// n samples.
func (s *SpectrogramPlan) Frames(n int) int {
	if len(s.window) == 0 || n < len(s.window) {
		return 0
	}
	return (n-len(s.window))/s.hop() + 1
}

// Compute appends the power spectrogram of x to dst (pass nil to allocate)
// and returns it, reusing dst's rows when their capacity allows. Rows are
// indexed as psd[frame][bin] with bins in FFT order, matching Spectrogram.
func (s *SpectrogramPlan) Compute(x []complex128, dst [][]float64) [][]float64 {
	nFrames := s.Frames(len(x))
	if nFrames == 0 {
		return dst[:0]
	}
	hop := s.hop()
	nfft := s.plan.Size()
	if cap(dst) < nFrames {
		grown := make([][]float64, nFrames)
		copy(grown, dst[:len(dst)])
		dst = grown
	}
	dst = dst[:nFrames]
	for f := range dst {
		start := f * hop
		for i, w := range s.window {
			s.frame[i] = x[start+i] * complex(w, 0)
		}
		s.plan.Transform(s.buf, s.frame)
		if cap(dst[f]) < nfft {
			dst[f] = make([]float64, nfft)
		}
		dst[f] = dst[f][:nfft]
		for i, v := range s.buf {
			re, im := real(v), imag(v)
			dst[f][i] = re*re + im*im
		}
	}
	return dst
}
