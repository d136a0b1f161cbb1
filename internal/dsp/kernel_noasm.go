//go:build !amd64

package dsp

// hostKernels registers the portable tier only: there are no assembly
// kernels for this architecture.
func hostKernels() []Kernel { return []Kernel{{name: "go", tier: tierGo}} }

// The AVX2 entry points are never registered here, so the dispatch never
// reaches them.

func radix4AVX2(x []complex128, tw []complex128, inverse bool) {
	panic("dsp: no AVX2 kernel on this architecture")
}

func goertzelManyAVX2(x []complex128, thetas []float64, out []complex128) {
	panic("dsp: no AVX2 kernel on this architecture")
}

func slideAVX2(sums, rot, tail, leave, enter []complex128) {
	panic("dsp: no AVX2 kernel on this architecture")
}

func radix4LoadAVX2(dst []complex128, perm []int32, src []complex128, q, live int, tw []complex128, inverse bool) {
	panic("dsp: no AVX2 kernel on this architecture")
}

func decimateAVX2(dst, seg, conj []complex128, d int) {
	panic("dsp: no AVX2 kernel on this architecture")
}
