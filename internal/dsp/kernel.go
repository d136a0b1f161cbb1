package dsp

// kernelTier identifies one implementation of the package's vectorizable
// inner loops: the radix-4 FFT stages behind Plan, the multi-frequency
// Goertzel recurrence behind GoertzelDFTMany and the SlidingDFT update.
type kernelTier uint8

const (
	// tierGo is the portable Go kernel: the only tier on hosts without
	// AVX2 and on other architectures, and the parity tests' reference.
	tierGo kernelTier = iota
	// tierAVX2 is the amd64 assembly kernel (kernel_amd64.s).
	tierAVX2
)

// A Kernel is one registered implementation tier. Every tier runs the
// portable Go kernel's exact floating-point operation sequence, so all
// tiers produce bit-identical spectra and Goertzel sums; they differ only
// in speed. The package's entry points (Plan.Transform and friends,
// GoertzelDFTMany, SlidingDFT) always run the fastest tier the host
// supports; a Kernel's own methods run that one tier, for benchmarks and
// parity checks.
type Kernel struct {
	name string
	tier kernelTier
}

// kernels is the registration table, filled once during package
// initialization: the portable tier first, then every tier whose CPU check
// passed on this host (see hostKernels). The entry points dispatch to the
// last one.
var kernels = hostKernels()

// activeTier is the tier the entry points dispatch to.
var activeTier = kernels[len(kernels)-1].tier

// Kernels returns the implementation tiers this host can run, the portable
// Go kernel first and the one the entry points dispatch to last.
func Kernels() []Kernel { return append([]Kernel(nil), kernels...) }

// Name returns the tier's short name ("go", "avx2").
func (k Kernel) Name() string { return k.name }

// Transform is p.Transform computed with this tier.
func (k Kernel) Transform(p *Plan, dst, src []complex128) {
	p.load(dst, src)
	p.runTier(dst, p.fwd, false, k.tier)
}

// GoertzelDFTMany is the package-level GoertzelDFTMany computed with this
// tier.
func (k Kernel) GoertzelDFTMany(x []complex128, thetas []float64, out []complex128) {
	goertzelMany(x, thetas, out, k.tier)
}

// x86 feature bits read by x86HasAVX2.
const (
	cpuid1ECXOSXSAVE = 1 << 27 // OS has enabled XSETBV/XGETBV
	cpuid1ECXAVX     = 1 << 28
	cpuid7EBXAVX2    = 1 << 5
	xcr0SSEAVXState  = 1<<1 | 1<<2 // XMM and YMM register state
)

// x86HasAVX2 decides from raw CPUID and XGETBV register values whether the
// AVX2 tier may run: the CPU must offer leaf 7 and report AVX2 there (EBX
// bit 5), report AVX and OSXSAVE in leaf 1 (ECX bits 28 and 27), and the
// OS must save the YMM upper halves across context switches (XCR0 bits 1
// and 2). maxLeaf is CPUID leaf 0's EAX; xcr0 is XGETBV(0)'s EAX, read only
// when OSXSAVE is set (0 otherwise). The decision is pure so it can be
// tested against register dumps of hosts without AVX2.
func x86HasAVX2(maxLeaf, ecx1, ebx7, xcr0 uint32) bool {
	if maxLeaf < 7 {
		return false
	}
	if ecx1&(cpuid1ECXOSXSAVE|cpuid1ECXAVX) != cpuid1ECXOSXSAVE|cpuid1ECXAVX {
		return false
	}
	return xcr0&xcr0SSEAVXState == xcr0SSEAVXState && ebx7&cpuid7EBXAVX2 != 0
}
