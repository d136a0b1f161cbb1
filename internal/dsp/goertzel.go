package dsp

import "math"

// GoertzelDFT evaluates the DFT of x at one arbitrary angular frequency
// omega (radians per sample):
//
//	X(ω) = Σ_{i<n} x[i]·e^{−jωi}
//
// in O(n) with the Goertzel recurrence — two real multiplies per sample
// against the real coefficient 2·cos ω, no twiddle table and no restriction
// of ω to an FFT bin grid. It allocates nothing, so hot paths may call it
// per window; when a caller needs several frequencies of the same samples,
// GoertzelDFTMany evaluates them with the identical arithmetic at a
// fraction of the latency, and when it needs the same frequencies across
// many window positions of one trace, SlidingDFT amortizes the evaluation
// to O(1) per one-sample shift instead.
func GoertzelDFT(x []complex128, omega float64) complex128 {
	n := len(x)
	if n == 0 {
		return 0
	}
	coeff := 2 * math.Cos(omega)
	var s1, s2 complex128
	for _, v := range x {
		// The coefficient is real, so scale componentwise instead of paying
		// a full complex multiply.
		s0 := v + complex(coeff*real(s1)-real(s2), coeff*imag(s1)-imag(s2))
		s2, s1 = s1, s0
	}
	return goertzelFinish(s1, s2, omega, n)
}

// goertzelFinish unwinds the final Goertzel state of an n-sample run at
// omega: X(ω) = (s_{n−1} − e^{−jω}·s_{n−2})·e^{−jω(n−1)}. Both kernels end
// here, so their results agree bit for bit whenever their recurrences do.
func goertzelFinish(s1, s2 complex128, omega float64, n int) complex128 {
	sin, cos := math.Sincos(omega)
	em := complex(cos, -sin)
	sinN, cosN := math.Sincos(omega * float64(n-1))
	return (s1 - em*s2) * complex(cosN, -sinN)
}

// GoertzelDFTMany evaluates the DFT of x at every angular frequency of
// thetas into out[:len(thetas)] (out must be at least that long):
// out[k] = GoertzelDFT(x, thetas[k]), bit for bit.
//
// A single Goertzel recurrence is a latency-bound dependency chain — each
// sample's state needs the previous one — so evaluating k frequencies one
// after another leaves the FPU idle most of the time. This kernel runs
// three chains per pass over x, each with exactly GoertzelDFT's
// arithmetic in GoertzelDFT's order, so the three overlap in the pipeline
// and x is read once per group; a remainder of one or two frequencies goes
// through GoertzelDFT itself.
//
//softlora:allocfree
func GoertzelDFTMany(x []complex128, thetas []float64, out []complex128) {
	out = out[:len(thetas)]
	n := len(x)
	if n == 0 {
		clear(out)
		return
	}
	k := 0
	for ; k+3 <= len(thetas); k += 3 {
		w0, w1, w2 := thetas[k], thetas[k+1], thetas[k+2]
		c0, c1, c2 := 2*math.Cos(w0), 2*math.Cos(w1), 2*math.Cos(w2)
		// Chain j keeps its two states as separate reals (aR, aI) and
		// (bR, bI) so all three stay in registers; every update is
		// GoertzelDFT's componentwise s0 = v + (c·s1 − s2). Two samples per
		// iteration let the states trade roles instead of being copied:
		// after the first update b holds s1 and a holds s2, after the
		// second they are back in place.
		var a0R, a0I, b0R, b0I float64
		var a1R, a1I, b1R, b1I float64
		var a2R, a2I, b2R, b2I float64
		for rest := x; len(rest) >= 2; rest = rest[2:] {
			vR, vI := real(rest[0]), imag(rest[0])
			b0R = vR + (c0*a0R - b0R)
			b0I = vI + (c0*a0I - b0I)
			b1R = vR + (c1*a1R - b1R)
			b1I = vI + (c1*a1I - b1I)
			b2R = vR + (c2*a2R - b2R)
			b2I = vI + (c2*a2I - b2I)
			vR, vI = real(rest[1]), imag(rest[1])
			a0R = vR + (c0*b0R - a0R)
			a0I = vI + (c0*b0I - a0I)
			a1R = vR + (c1*b1R - a1R)
			a1I = vI + (c1*b1I - a1I)
			a2R = vR + (c2*b2R - a2R)
			a2I = vI + (c2*b2I - a2I)
		}
		if n%2 == 1 {
			vR, vI := real(x[n-1]), imag(x[n-1])
			a0R, b0R = vR+(c0*a0R-b0R), a0R
			a0I, b0I = vI+(c0*a0I-b0I), a0I
			a1R, b1R = vR+(c1*a1R-b1R), a1R
			a1I, b1I = vI+(c1*a1I-b1I), a1I
			a2R, b2R = vR+(c2*a2R-b2R), a2R
			a2I, b2I = vI+(c2*a2I-b2I), a2I
		}
		out[k] = goertzelFinish(complex(a0R, a0I), complex(b0R, b0I), w0, n)
		out[k+1] = goertzelFinish(complex(a1R, a1I), complex(b1R, b1I), w1, n)
		out[k+2] = goertzelFinish(complex(a2R, a2I), complex(b2R, b2I), w2, n)
	}
	for ; k < len(thetas); k++ {
		out[k] = GoertzelDFT(x, thetas[k])
	}
}
