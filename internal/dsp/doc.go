// Package dsp provides the signal-processing substrate used by the SoftLoRa
// gateway: complex baseband (I/Q) trace manipulation, FFT and spectrograms,
// single-frequency DFT evaluation (Goertzel) with sliding-window updates,
// Hilbert-transform envelopes, FIR filtering and decimation, phase
// unwrapping, linear regression, autoregressive modelling with the Akaike
// Information Criterion, differential-evolution optimization, and noise
// generation calibrated to a target SNR.
//
// All routines operate on discrete-time complex baseband traces sampled at a
// caller-supplied rate. The package is deterministic: every stochastic
// routine takes an explicit *rand.Rand so experiments are reproducible.
//
// # Plans and scratch ownership
//
// Hot paths transform through Plan: per-size cached twiddle factors and
// permutation tables whose Transform/TransformInPlace/Inverse entry points
// never allocate after construction. A plan whose size's log2 is even
// (4, 16, …, 1024, 4096, 16384 — every hot gateway size) runs a radix-4
// butterfly kernel, ~25 % fewer multiplies than radix-2; odd-log2 sizes
// fall back to the radix-2 kernel (Plan.Radix reports the selection);
// the radix-4 stages run on the host's fastest kernel tier (below).
// Plans are immutable, so the process-wide cache behind PlanFor may hand
// the same *Plan to any number of goroutines. Everything mutable is the
// CALLER's scratch — the buffers paired with a plan, and the stateful
// helpers (SpectrogramPlan, HilbertScratch, AICScratch, SlidingDFT, a
// FIRFilter once applied) — and is strictly single-goroutine: one
// plan/scratch set per worker, no sharing. The one-shot conveniences (FFT,
// IFFT, Spectrogram, Envelope, AICOnset, Apply, GoertzelDFT,
// GoertzelDFTMany) allocate nothing or per call and stay safe for casual
// use.
//
// # Full-spectrum, few-bin, and decimated evaluation
//
// The package offers three cost tiers for spectral evaluation, which is
// what the onset detector's coarse→fine hierarchy in package core is built
// from. A Plan transform computes every bin in O(n log n). GoertzelDFT
// evaluates one arbitrary frequency in O(n); GoertzelDFTMany evaluates a
// set of them over the same samples with several recurrences per pass, bit
// for bit GoertzelDFT's results but without its one-chain latency bound.
// SlidingDFT tracks a fixed frequency set across a sliding window at
// O(bins) per one-sample shift (its initial sums come from
// GoertzelDFTMany) — the right shape when successive windows overlap
// almost entirely.
// DechirpScratch.DechirpDecimated trades frequency span instead of
// resolution: it boxcar-sums the dechirped product by the decimation
// factor before a proportionally smaller transform, preserving the full
// window's coherent gain over the surviving band (compensate the boxcar's
// sinc droop per bin with BoxcarDroopSq; DechirpDecimateInto exposes the
// decimated time series when a caller needs it past the transform).
//
// Callers that transform a short or freshly computed series (a dechirped
// window, its decimation, a windowed spectrogram frame) write it into a
// series-length scratch and call Plan.Transform with a separate dst: on
// a radix-4 plan the first butterfly pass then reads the series as it
// loads, so no zero-padded copy is built and no permutation pass runs.
// The in-place entries suit data that already sits in a plan-sized
// buffer.
//
// The decision-stage float32 lanes trade
// precision for bandwidth where the consumer's error budget allows it:
// AICScratch.Onset32/Onset32Strided and the FIRFilter ...32 apply paths
// run the onset detector's coarse/mid argmin stages on float32 data with a
// float32 Cephes log (fastLn32, ~4e-7 relative), halving the memory
// traffic of the widest scans. The contract is that float32 output feeds
// DECISIONS (an argmin handed to a dense float64 refinement), never values
// that flow into the bias database; OnsetStrided/Onset32Strided further
// cut the argmin cost by evaluating every stride-th candidate and densely
// refining around the winner.
//
// ZoomDFT adds the zoom tier between "one bin" and "all bins": a planned
// chirp-Z transform that evaluates a dense uniform grid of `points`
// frequencies anywhere in the band at O((m+points)·log(m+points)) — two
// planned FFTs per call — against O(points·m) for a GoertzelGrid sweep
// (measured ~4.5× faster at the FB estimator's 307-sample/65-point
// geometry, BenchmarkZoomGrid). The frequency-bias estimator's
// coarse-to-fine path is the canonical composition: DechirpDecimateInto
// shrinks the band, a small plan transform localizes the tone to a coarse
// bin, and ZoomDFT refines it on a grid finer than any affordable padded
// FFT, with FoldFrequency wrapping interpolated readouts back into the
// principal alias band.
//
// # Kernel tiers and the bit-parity contract
//
// Five inner loops carry most of the onset detector's arithmetic: the
// radix-4 stages of Plan (coarse scan and anchor FFTs), the out-of-place
// first pass that loads a radix-4 transform, the dechirp-and-boxcar sum of
// DechirpDecimateInto, the multi-frequency Goertzel recurrence of
// GoertzelDFTMany, and the SlidingDFT.Advance update. Each has a portable
// Go kernel and, on amd64 hosts whose CPU and OS support AVX2, an
// assembly kernel (kernel_amd64.s) that evaluates two complex values per
// YMM register: two butterflies per iteration in the radix-4 stages of
// quarter ≥ 4 and in the first pass (whose two quadruples' outputs are
// transposed into their digit-reversed places), eight decimated outputs'
// sums side by side, up to ten Goertzel chains per pass over x, two
// sliding bins per update. The in-place entries still permute with the Go
// swap loop and run the size-4 stage in Go. A
// CPUID/XGETBV check selects the tier once, during package
// initialization; there is no configuration knob, environment variable or
// build tag. Kernels lists the registered tiers (the portable tier first,
// the dispatched one last), and a Kernel's methods run one tier directly,
// which is how the parity tests and the go/avx2 sub-benchmarks reach both.
// Measured on a 2-vCPU Xeon (go1.24.0), Go tier → AVX2 tier: a 1024-point
// out-of-place transform 16 → 3.7 µs, the coarse scan's 614-sample window
// into a 1024-point plan 17 → 4.2 µs, its 2457-sample decimation by 4
// 8.1 → 2.3 µs, nine Goertzel frequencies over 2457 samples 45 → 13 µs,
// a nine-bin, nine-sample slide 0.37 → 0.14 µs.
//
// The contract is bit parity: every tier performs the Go kernel's exact
// floating-point operation sequence — the complex multiply as
// re = ar·br − ai·bi, im = ai·br + ar·bi with one rounding per product
// and per sum (VMULPD, VPERMILPD, VADDSUBPD; never a fused multiply-add),
// the Goertzel update as v + (c·s1 − s2), the quarter turn as a sign flip,
// the boxcar sum as ((0 + p0) + p1) + … in sample order, the first pass's
// zero padding multiplied by the twiddle like any other input — so
// spectra, onsets, verdicts and the serialized bias database do not
// depend on the host, nor on whether a transform ran in or out of place.
// Only which NaN payload propagates can differ, since operand order picks
// it. The Go kernels stay: they are the only path on hosts without AVX2
// and on other architectures, and the parity tests' reference
// (kernel_test.go compares the tiers bit for bit over every radix-4 size,
// the out-of-place entry against copy+in-place for source lengths around
// every quarter boundary, decimation factors 1–8, Goertzel and slide
// shapes, signed zeros, ±Inf and NaN, and a fuzz target). The exhaustive onset reference keeps calling the scalar
// GoertzelDFT. One caveat: a build with GOAMD64=v3 lets the compiler fuse
// multiply-adds in the Go kernels themselves, which changes their rounding,
// so such a build falls outside this contract.
//
// # Synthesis-path cost tiers and the oscillator drift contract
//
// Waveform synthesis and front-end rotation have their own cost ladder,
// mirrored on the analysis tiers above. Direct rendering — evaluate the
// phase polynomial, then math.Sincos — costs ~25 ns per sample and is the
// reference everything else is tested against. Oscillator and Rotator
// replace it with complex-multiply recurrences: a LoRa chirp's phase is
// quadratic in the sample index, so its sample stream obeys the
// second-order recurrence s[i+1] = s[i]·r[i], r[i+1] = r[i]·q with constant
// q = exp(j·2π·k·dt²) — two multiplies per sample (Oscillator); a
// constant-frequency rotation needs only the first-order s[i+1] = s[i]·r
// (Rotator, one multiply). Measured on the gateway benchmarks the
// recurrences run 5–10× faster than direct trig (BenchmarkChirpSynthesize,
// BenchmarkSDRDownconvert). GaussianSource is the noise-synthesis analogue:
// a seedable 128-layer ziggurat over a splitmix64 counter whose steady-state
// Norm draw is a buffered read (~4 ns, zero allocations, O(1) seeding),
// ~10× cheaper than math/rand's NormFloat64 — the SDR front end burns two
// draws per complex sample on dither and noise-figure injection, so this is
// what keeps quantization off the batch profile's top.
//
// The drift contract: each recurrence step rounds, so magnitude and phase
// wander as a slow random walk. Every OscRenormInterval (1024) steps the
// oscillators re-seed s and r exactly from the closed-form phase
// polynomial, which caps the accumulated error at what ≤1024 complex
// multiplies can introduce — observed < 1e-12 rad and pinned < 1e-9 rad per
// block by the drift property tests (oscillator_test.go, and
// lora's oscillator-vs-Sincos parity suite across SF 7–12 with realistic
// frequency offsets). Consumers therefore treat oscillator output as exact:
// detectors dechirp against Oscillator-rendered references
// (lora.ChirpSpec.FillPhasors) with no accuracy budget set aside for the
// recurrence.
//
// Oscillator32 and Rotator32 are the complex64 lane of the same
// recurrences for float32 consumers, and make the opposite trade: their
// per-step float32 rounding walks fast enough that they re-seed every
// OscRenormInterval32 (128) steps — OscChirpRenormInterval32 (64) for the
// chirp, whose r-drift compounds quadratically — pinning the error to
// ~1e-6 rad (rotator) and ~1e-4 (chirp), both far under the 8-bit ADC
// quantization step of ~4e-3 their consumers live against
// (oscillator32_test.go states the budget). Their inner loops spell the
// complex multiplies out on float32 components because gc lowers builtin
// complex64 arithmetic through float64 conversions, which would cost more
// than complex128. Unlike the float64 oscillators they are NOT exact-by-
// contract: keep them off any path that feeds the bias database.
//
//softlora:float32-lanes
package dsp
