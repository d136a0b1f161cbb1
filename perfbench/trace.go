package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"softlora/internal/core"
	"softlora/internal/lora"
	"softlora/internal/netserver"
	"softlora/internal/radio"
	"softlora/internal/sdr"
)

// Span names. Each wraps one call into a layer's public API, made from the
// benchmark's own code.
const (
	spanBatch      = "softlora.Gateway.ProcessBatch"
	spanRound      = "softlora.ObserveRound" // a fleet round's parallel Observe calls
	spanObserve    = "softlora.Gateway.Observe"
	spanReplay     = "replay.phy" // the stage replay of one capture
	spanDownconv   = "sdr.Receiver.DownconvertInto"
	spanOnset      = "core.OnsetDetector.DetectOnset"
	spanFB         = "core.FBEstimator.EstimateFB"
	spanCheck      = "netserver.NetworkServer.Check"
	spanCheckBatch = "netserver.NetworkServer.CheckBatch"
	spanFuse       = "netserver.Fuse"
)

// span is one timed call. Spans of one frame share Frame; Parent indexes
// the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Frame  int64  `json:"frame"`
	// Shadow marks measurement-only work the untraced loop never does
	// (stage replays, shadow checks); root shadow spans are subtracted
	// from the traced phase's wall time before comparing throughputs.
	Shadow bool `json:"shadow,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end. A nil tracer records
// nothing.
func (t *tracer) begin(name string, parent int, frame int64, shadow bool) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Frame: frame, Shadow: shadow})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int64
	total time.Duration
}

func (s spanStat) meanUs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / float64(time.Microsecond)
}

// summary aggregates spans by name and sums the root shadow spans.
func (t *tracer) summary() (map[string]spanStat, time.Duration) {
	out := make(map[string]spanStat)
	var shadow time.Duration
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		st := out[s.Name]
		st.count++
		st.total += d
		out[s.Name] = st
		if s.Shadow && s.Parent < 0 {
			shadow += d
		}
	}
	return out, shadow
}

// maxWrittenSpans caps the spans file (about 100 bytes a span); the
// per-layer figures aggregate every span recorded.
const maxWrittenSpans = 100_000

// write stores the first maxWrittenSpans spans as JSON lines and returns
// how many it wrote.
func (t *tracer) write(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := t.spans[:min(len(t.spans), maxWrittenSpans)]
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}

// errParity is returned when the stage replay does not reproduce the
// gateway's PHY stage: the trace would be timing a different program.
var errParity = errors.New("stage replay diverged from Gateway.Observe")

// stageReplay re-runs a gateway's PHY stage from outside the gateway, one
// layer call at a time — SDR down-conversion, onset detection, FB
// estimation — so each layer can be timed on its own. Its receiver is
// seeded like the gateway's (the one passed in through Config.SDR), and its
// detector and estimator are configured like the gateway's, so on every
// capture it must reproduce Observe's onset sample and FB bit for bit.
type stageReplay struct {
	params lora.Params
	gwRecv *sdr.Receiver // the gateway's receiver
	recv   *sdr.Receiver // the replay's twin of it
	onset  core.OnsetDetector
	fb     core.FBEstimator
	out    sdr.Capture
	// checked counts captures whose replay matched Observe.
	checked int64
}

func newStageReplay(params lora.Params, gwRecv *sdr.Receiver, onset core.OnsetDetector, fb core.FBEstimator) *stageReplay {
	twin := &sdr.Receiver{
		FrequencyBias:       gwRecv.FrequencyBias,
		ADCBits:             gwRecv.ADCBits,
		NoiseFigurePowerdBm: gwRecv.NoiseFigurePowerdBm,
		Rand:                rand.New(rand.NewSource(0)),
	}
	return &stageReplay{params: params, gwRecv: gwRecv, recv: twin, onset: onset, fb: fb}
}

// reseed puts the gateway's receiver and its twin on identical random
// streams. Call it while the gateway is idle, before the first replayed
// capture of a phase.
func (r *stageReplay) reseed(seed int64) {
	r.gwRecv.Rand.Seed(seed)
	r.recv.Rand.Seed(seed)
}

// replay runs the three stages on capt under a shadow root span and checks
// the result against what Observe returned for the same capture (obs, or
// obsErr when it failed). Captures must be replayed in the order the
// gateway observed them.
func (r *stageReplay) replay(tr *tracer, frame int64, capt *radio.Capture, obs netserver.PHYObservation, obsErr error) error {
	root := tr.begin(spanReplay, -1, frame, true)
	defer tr.end(root)
	sample, fb, err := r.stages(tr, root, frame, capt)
	switch {
	case (err != nil) != (obsErr != nil):
		return fmt.Errorf("%w: frame %d: replay error %v, Observe error %v", errParity, frame, err, obsErr)
	case err != nil:
	case sample != obs.OnsetSample || math.Float64bits(fb) != math.Float64bits(obs.FBHz):
		return fmt.Errorf("%w: frame %d: onset %d vs %d, FB %v vs %v Hz", errParity, frame, sample, obs.OnsetSample, fb, obs.FBHz)
	}
	r.checked++
	return nil
}

func (r *stageReplay) stages(tr *tracer, parent int, frame int64, capt *radio.Capture) (int, float64, error) {
	s := tr.begin(spanDownconv, parent, frame, true)
	err := r.recv.DownconvertInto(&r.out, capt)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	defer r.out.Release()
	s = tr.begin(spanOnset, parent, frame, true)
	on, err := r.onset.DetectOnset(r.out.IQ, r.out.Rate)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	// The gateway times the first chirp and estimates FB on the second.
	n := int(r.params.SamplesPerChirp(r.out.Rate))
	second := on.Sample + n
	if second+n > len(r.out.IQ) {
		return 0, 0, fmt.Errorf("capture too short after onset %d", on.Sample)
	}
	s = tr.begin(spanFB, parent, frame, true)
	est, err := r.fb.EstimateFB(r.out.IQ[second:second+n], r.out.Rate)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	return on.Sample, est.DeltaHz, nil
}
