package dsp

import "math"

// hostKernels registers the portable tier and, when the CPU and OS
// support it, the AVX2 assembly tier.
func hostKernels() []Kernel {
	ks := []Kernel{{name: "go", tier: tierGo}}
	if hostHasAVX2() {
		ks = append(ks, Kernel{name: "avx2", tier: tierAVX2})
	}
	return ks
}

// hostHasAVX2 reads the CPUID leaves and XCR0 that x86HasAVX2 decides on.
// XGETBV faults unless the OS has set OSXSAVE, so it is read only then.
func hostHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&cpuid1ECXOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return x86HasAVX2(maxLeaf, ecx1, ebx7, xcr0)
}

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// radix4AVX2 runs the radix-4 DIT stages of quarter ≥ 4 over x (size
// n ≥ 16, digit-reversed, its size-4 stage already done), two butterflies
// per iteration, with the plan's per-stage twiddle table tw (see
// Plan.stageFwd). inverse selects the +j quarter-turn.
//
//go:noescape
func radix4AVX2(x []complex128, tw []complex128, inverse bool)

// radix4LoadAVX2 is loadRadix4's kernel for the even-length run of r
// whose perm entries are perm (r starts even): for each pair r, r+1 it
// reads rows k < live of src at src[r'+k·q] (r' counting from src[0]),
// zeros for the rows past live, multiplies rows 1–3 by tw[0], runs the
// size-4 butterfly on both quadruples and stores the outputs of r at
// dst[perm[r]+k] and those of r+1 at dst[perm[r]+q+k].
//
//go:noescape
func radix4LoadAVX2(dst []complex128, perm []int32, src []complex128, q, live int, tw []complex128, inverse bool)

// decimateAVX2 is decimate's kernel for len(dst) a multiple of eight,
// with seg and conj at least len(dst)·d long: eight outputs' sums per
// pass, two per YMM register, each accumulated in the Go kernel's order.
//
//go:noescape
func decimateAVX2(dst, seg, conj []complex128, d int)

// slideAVX2 moves the sliding DFT sums of every bin len(leave) samples on,
// sample t leaving as leave[t] and entering as enter[t] (len(enter) ≥
// len(leave)); rot and tail are as long as sums (see SlidingDFT).
//
//go:noescape
func slideAVX2(sums, rot, tail, leave, enter []complex128)

// goertzelAVX2 runs goertzelLanes Goertzel recurrences over the
// even-length, non-empty x from zero state, with coefficients coef (each
// 2·cos θ stored twice, once per component), and stores the final states:
// s1 in st[:2·goertzelLanes], s2 in st[2·goertzelLanes:], (re, im) per
// frequency.
//
//go:noescape
func goertzelAVX2(x []complex128, coef *[2 * goertzelLanes]float64, st *[4 * goertzelLanes]float64)

// goertzelLanes is how many frequencies one AVX2 Goertzel pass carries:
// five YMM registers of two complex states each, for both recurrence
// states, fill ten of the sixteen YMM registers.
const goertzelLanes = 10

// goertzelManyAVX2 is GoertzelDFTMany on the AVX2 tier: the assembly
// kernel runs the recurrences of up to goertzelLanes frequencies over the
// even-length prefix of x in one pass; the odd last sample and
// goertzelFinish stay here, with the Go kernel's arithmetic.
func goertzelManyAVX2(x []complex128, thetas []float64, out []complex128) {
	n := len(x)
	even := x[:n&^1]
	for k := 0; k < len(thetas); k += goertzelLanes {
		group := thetas[k:min(k+goertzelLanes, len(thetas))]
		var coef [2 * goertzelLanes]float64 // 2·cos θ, once per component
		for i, w := range group {
			c := 2 * math.Cos(w)
			coef[2*i], coef[2*i+1] = c, c
		}
		// st[:2L] holds the newest state s1 and st[2L:] the one before it,
		// s2, as (re, im) per frequency.
		var st [4 * goertzelLanes]float64
		if len(even) > 0 {
			goertzelAVX2(even, &coef, &st)
		}
		for i, w := range group {
			aR, aI := st[2*i], st[2*i+1]
			bR, bI := st[2*goertzelLanes+2*i], st[2*goertzelLanes+2*i+1]
			if n%2 == 1 {
				c := coef[2*i]
				vR, vI := real(x[n-1]), imag(x[n-1])
				aR, bR = vR+(c*aR-bR), aR
				aI, bI = vI+(c*aI-bI), aI
			}
			out[k+i] = goertzelFinish(complex(aR, aI), complex(bR, bI), w, n)
		}
	}
}
