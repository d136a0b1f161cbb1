package main

import (
	"fmt"
	"math"
	"math/rand"

	"softlora/internal/attack"
	"softlora/internal/lora"
	"softlora/internal/radio"
)

// Attack geometry of the frame delay attack (§4, §8.1.1): the eavesdropper
// records next to the device, the replayer transmits next to a gateway at
// an inconspicuous power.
const (
	eavesdropLossdB = 40
	replayLossdB    = 40
	replayTxdBm     = 7
)

// emission is a device's frame as it leaves the antenna at t0.
func emission(tx *lora.Transmitter, p lora.Params, rng *rand.Rand, t0 float64, payload []byte) radio.Emission {
	return radio.Emission{
		Frame:       lora.Frame{Params: p, Payload: payload},
		Impairments: tx.NextImpairments(p, rng),
		StartTime:   t0,
		TxPowerdBm:  tx.PowerdBm,
	}
}

// replayEmission is the attack's replay step: an eavesdropper next to the
// device records em, and a USRP-like replayer (−543..−743 Hz oscillator
// bias) re-emits the recording through its own front end, arriving at the
// gateway at time at.
func replayEmission(em radio.Emission, at, rate, noiseFloordBm float64, rng *rand.Rand) (radio.Emission, error) {
	dur, err := em.Frame.ModulatedDuration()
	if err != nil {
		return radio.Emission{}, err
	}
	em.PathLossdB, em.Distance = eavesdropLossdB, 0
	ch := &radio.Channel{SampleRate: rate, NoiseFloordBm: noiseFloordBm, Rand: rng}
	rec, err := ch.Receive([]radio.Emission{em}, em.StartTime, dur+2e-3)
	if err != nil {
		return radio.Emission{}, fmt.Errorf("eavesdropper recording: %w", err)
	}
	r := attack.Replayer{FrequencyBiasHz: -543 - 200*rng.Float64(), JitterHz: 30, Rand: rng}
	wf := r.Reemit(rec.IQ, rate)
	rec.Release()
	// Normalize to unit power so TxPowerdBm sets the on-air power.
	var pw float64
	for _, v := range wf {
		pw += real(v)*real(v) + imag(v)*imag(v)
	}
	scale := complex(1/math.Sqrt(pw/float64(len(wf))), 0)
	for i := range wf {
		wf[i] *= scale
	}
	return radio.Emission{Waveform: wf, StartTime: at, TxPowerdBm: replayTxdBm, PathLossdB: replayLossdB, Distance: 1}, nil
}

// pickReplays marks round(share·n) of n frames, chosen by rng, as replays.
func pickReplays(rng *rand.Rand, n int, share float64) []bool {
	out := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(math.Round(share*float64(n)))] {
		out[i] = true
	}
	return out
}
