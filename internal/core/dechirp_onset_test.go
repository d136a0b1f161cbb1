package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"softlora/internal/dsp"
	"softlora/internal/lora"
)

func TestDechirpOnsetHighSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	det := &DechirpOnsetDetector{Params: testParams()}
	for trial := 0; trial < 5; trial++ {
		// Real SoftLoRa captures span multiple preamble chirps; the
		// triangle fit needs both flanks of the first boundary.
		iq, want := frameCapture(t, rng, -22e3, rng.Float64()*2*math.Pi, 30)
		got, err := det.DetectOnset(iq, testRate)
		if err != nil {
			t.Fatal(err)
		}
		errUs := math.Abs(float64(got.Sample)-want) / testRate * 1e6
		if errUs > 5 {
			t.Errorf("trial %d: error %.2f µs", trial, errUs)
		}
	}
}

func TestDechirpOnsetVeryLowSNR(t *testing.T) {
	// Despreading gain keeps the detector at microseconds where plain AIC
	// drifts by hundreds of µs: at −10 dB the plain detector averages
	// ~130 µs (Fig. 10), this one stays within tens.
	rng := rand.New(rand.NewSource(161))
	det := &DechirpOnsetDetector{Params: testParams()}
	var sum float64
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		iq, want := frameCapture(t, rng, -22e3, rng.Float64()*2*math.Pi, -10)
		got, err := det.DetectOnset(iq, testRate)
		if err != nil {
			t.Fatal(err)
		}
		sum += math.Abs(float64(got.Sample)-want) / testRate * 1e6
	}
	if avg := sum / trials; avg > 40 {
		t.Errorf("mean error at -10 dB = %.1f µs, want < 40", avg)
	}
}

func TestDechirpOnsetDegenerateCaptures(t *testing.T) {
	// Like the paper's detectors, this one is threshold-free: on pure
	// noise it returns an arbitrary pick rather than an error. Only
	// structurally unusable captures error.
	det := &DechirpOnsetDetector{Params: testParams()}
	if _, err := det.DetectOnset(nil, testRate); err == nil {
		t.Error("empty capture should error")
	}
	if _, err := det.DetectOnset(make([]complex128, 64), testRate); err == nil {
		t.Error("sub-chirp capture should error")
	}
	bad := &DechirpOnsetDetector{Params: lora.Params{SF: 99}}
	if _, err := bad.DetectOnset(make([]complex128, 8192), testRate); err == nil {
		t.Error("invalid params should error")
	}
}

func TestDechirpOnsetWalksBackToFirstChirp(t *testing.T) {
	// A capture holding several preamble chirps: the detector must report
	// the FIRST boundary, not a later one.
	rng := rand.New(rand.NewSource(163))
	p := testParams()
	det := &DechirpOnsetDetector{Params: p}
	iq, want := frameCapture(t, rng, -21e3, 0.7, 10)
	got, err := det.DetectOnset(iq, testRate)
	if err != nil {
		t.Fatal(err)
	}
	errUs := math.Abs(float64(got.Sample)-want) / testRate * 1e6
	if errUs > 10 {
		t.Errorf("onset error %.2f µs (sample %d vs %.0f)", errUs, got.Sample, want)
	}
}

func TestDechirpOnsetErrorVsSNRMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(164))
	det := &DechirpOnsetDetector{Params: testParams()}
	meanErr := func(snr float64) float64 {
		var sum float64
		const trials = 4
		for i := 0; i < trials; i++ {
			iq, want := frameCapture(t, rng, -22e3, rng.Float64()*2*math.Pi, snr)
			got, err := det.DetectOnset(iq, testRate)
			if err != nil {
				t.Fatalf("snr %v: %v", snr, err)
			}
			sum += math.Abs(float64(got.Sample) - want)
		}
		return sum / trials
	}
	hi := meanErr(20)
	lo := meanErr(-10)
	if hi > lo {
		fmt.Println("note: high-SNR error exceeded low-SNR error (small-sample effect)")
	}
	if lo/testRate*1e6 > 60 {
		t.Errorf("error at -10 dB = %.1f µs", lo/testRate*1e6)
	}
}

// aliasPairMaxSqMod is aliasPairMaxSq's definition, one modulo per bin.
func aliasPairMaxSqMod(magSq []float64, wBins int) float64 {
	nb := len(magSq)
	best := 0.0
	for b := 0; b < nb; b++ {
		if s := magSq[b] + magSq[(b+nb-wBins)%nb]; s > best {
			best = s
		}
	}
	return best
}

func TestAliasPairMaxSqMatchesModuloDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(165))
	for _, nb := range []int{16, 1024} {
		magSq := make([]float64, nb)
		for i := range magSq {
			magSq[i] = rng.ExpFloat64()
		}
		for wBins := 1; wBins < nb; wBins++ {
			got, want := aliasPairMaxSq(magSq, wBins), aliasPairMaxSqMod(magSq, wBins)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("nb=%d wBins=%d: got %v, want %v", nb, wBins, got, want)
			}
		}
	}
}

// preambleConsistentFull is the reference preamble vote: it reads every
// available slot of the next three and only then takes the majority.
func preambleConsistentFull(d *DechirpOnsetDetector, apex, n int, bestMag, sampleRate float64) bool {
	dTheta := 2 * math.Pi * d.Params.Bandwidth / sampleRate
	avail, pass := 0, 0
	for j := 1; j <= 3; j++ {
		at := apex + j*n
		if at < 0 || at+n > len(d.z) {
			break
		}
		avail++
		if d.toneMetric(at, n, -float64(j)*dTheta) >= 0.5*bestMag {
			pass++
		}
	}
	return avail == 0 || 2*pass > avail
}

// TestPreambleConsistentEarlyExitMatchesFullVote sweeps candidate apexes
// over seeded frame captures (20 dB down to −23 dB, whole and cut inside
// the preamble) and noise-only captures, and requires the early-exit vote
// to agree with the full three-slot reference on each. Candidates are both
// refined apexes and the raw guesses they were refined from (misaligned
// windows read partial tones near the threshold), so every combination of
// 0–3 available slots and passing slots among them occurs.
func TestPreambleConsistentEarlyExitMatchesFullVote(t *testing.T) {
	rng := rand.New(rand.NewSource(166))
	det := &DechirpOnsetDetector{Params: testParams()}
	n := int(det.Params.SamplesPerChirp(testRate))
	var captures [][]complex128
	for _, snr := range []float64{20, -20, -20, -23} {
		iq, onset := frameCapture(t, rng, -22e3, rng.Float64()*2*math.Pi, snr)
		captures = append(captures, iq)
		// Cut inside the preamble too, so candidates on true chirp
		// boundaries run out of slots while their slots still carry chirps.
		for _, cut := range []float64{2.5, 3.5, 4.5} {
			captures = append(captures, iq[:int(onset+cut*float64(n))])
		}
	}
	for i := 0; i < 2; i++ {
		captures = append(captures, dsp.GaussianNoise(rng, 12*n, 1))
	}
	dTheta := 2 * math.Pi * det.Params.Bandwidth / testRate
	seen := make(map[[2]int]int) // {available slots, passing slots} → candidates
	for c, iq := range captures {
		if _, err := det.DetectOnset(iq, testRate); err != nil {
			t.Fatalf("capture %d: %v", c, err)
		}
		bestMag := 0.0
		for _, m := range det.coarseMags {
			bestMag = math.Max(bestMag, m)
		}
		for guess := 0; guess+n <= len(iq); guess += n / 3 {
			apex, pk := det.refineApex(iq, guess, n, testRate)
			if pk == 0 {
				continue
			}
			for _, at := range []int{apex, guess} {
				avail, pass := 0, 0
				for j := 1; j <= 3 && at+(j+1)*n <= len(iq); j++ {
					avail++
					if det.toneMetric(at+j*n, n, -float64(j)*dTheta) >= 0.5*bestMag {
						pass++
					}
				}
				seen[[2]int{avail, pass}]++
				full := preambleConsistentFull(det, at, n, bestMag, testRate)
				if got := det.preambleConsistent(at, n, bestMag, testRate); got != full {
					t.Errorf("capture %d candidate %d (%d of %d slots pass): early exit %v, full vote %v",
						c, at, pass, avail, got, full)
				}
			}
		}
	}
	for avail := 0; avail <= 3; avail++ {
		for pass := 0; pass <= avail; pass++ {
			if seen[[2]int{avail, pass}] == 0 {
				t.Errorf("no candidate with %d of %d available slots passing (seen %v)", pass, avail, seen)
			}
		}
	}
}

// testParams returns the default SF7 channel used across core tests.
func testParams() lora.Params { return lora.DefaultParams(7) }
