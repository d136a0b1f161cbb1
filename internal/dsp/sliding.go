package dsp

import "math"

// SlidingDFT tracks the windowed DFT sums
//
//	S_k(a) = Σ_{i<n} x[a+i]·e^{−jθ_k·i}
//
// of one n-sample window sliding over a trace, at a fixed set of angular
// frequencies θ_k (radians per sample, not restricted to any FFT grid).
// Advancing the window start by one sample updates every sum in O(1):
//
//	S_k(a+1) = (S_k(a) − x[a] + x[a+n]·e^{−jθ_k·n})·e^{jθ_k}
//
// so a scan over m window positions costs O(bins·(n + m)) instead of the
// O(m·n·log n) of a per-window FFT. This is what turns the onset detector's
// apex refinement from hundreds of full transforms into one anchor FFT plus
// a cheap slide (see core.DechirpOnsetDetector).
//
// The update rotates by unit-magnitude factors only, so float64 drift over
// the few-thousand-sample slides of a chirp window is far below the noise
// floor; re-anchoring per refinement pass (as the detector does) keeps it
// bounded regardless of trace length.
//
// A SlidingDFT reuses its internal slices across Reset calls and is not
// safe for concurrent use: one instance per goroutine.
type SlidingDFT struct {
	n     int
	start int
	sums  []complex128
	rot   []complex128 // e^{+jθ_k}: per-step phase advance
	tail  []complex128 // e^{−jθ_k·n}: rotation of the entering sample
}

// Reset points the tracker at window [start, start+n) of x and evaluates
// the initial sums for the given frequencies: O(len(thetas)·n) through
// GoertzelDFTMany, whose multi-chain passes read the window once per group
// of frequencies and give the scalar GoertzelDFT's sums bit for bit. It
// reuses the tracker's slices when their capacity allows, so steady-state
// Reset does not allocate for a bin count it has seen before. The window
// must fit the trace.
func (s *SlidingDFT) Reset(x []complex128, start, n int, thetas []float64) {
	k := len(thetas)
	if cap(s.sums) < k {
		s.sums = make([]complex128, k)
		s.rot = make([]complex128, k)
		s.tail = make([]complex128, k)
	}
	s.sums = s.sums[:k]
	s.rot = s.rot[:k]
	s.tail = s.tail[:k]
	s.n = n
	s.start = start
	GoertzelDFTMany(x[start:start+n], thetas, s.sums)
	for i, th := range thetas {
		sin, cos := math.Sincos(th)
		s.rot[i] = complex(cos, sin)
		sinN, cosN := math.Sincos(th * float64(n))
		s.tail[i] = complex(cosN, -sinN)
	}
}

// Start returns the current window start.
func (s *SlidingDFT) Start() int { return s.start }

// Bins returns how many frequencies the tracker follows.
func (s *SlidingDFT) Bins() int { return len(s.sums) }

// Advance slides the window forward by steps samples, updating every bin in
// O(steps·bins). The destination window must fit the trace. On hosts with
// the AVX2 kernel tier the bins are updated two per vector register, with
// the same arithmetic and therefore the same sums.
func (s *SlidingDFT) Advance(x []complex128, steps int) {
	s.advance(x, steps, activeTier)
}

// advance is Advance on the given kernel tier.
func (s *SlidingDFT) advance(x []complex128, steps int, tier kernelTier) {
	a, n := s.start, s.n
	// Reslice once so the compiler can prove every index in the loop:
	// sample t leaves as leave[t] and enters as enter[t].
	leave := x[a : a+steps]
	enter := x[a+n : a+n+steps]
	enter = enter[:len(leave)]
	sums := s.sums
	rot := s.rot[:len(sums)]
	tail := s.tail[:len(sums)]
	s.start = a + steps
	if tier == tierAVX2 {
		slideAVX2(sums, rot, tail, leave, enter)
		return
	}
	for t, l := range leave {
		e := enter[t]
		for i, v := range sums {
			sums[i] = (v - l + e*tail[i]) * rot[i]
		}
	}
}

// Sum returns the current DFT sum of bin k.
func (s *SlidingDFT) Sum(k int) complex128 { return s.sums[k] }

// MaxMagSq returns the largest squared magnitude over all tracked bins.
func (s *SlidingDFT) MaxMagSq() float64 {
	best := 0.0
	for _, v := range s.sums {
		re, im := real(v), imag(v)
		if m := re*re + im*im; m > best {
			best = m
		}
	}
	return best
}
