package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"softlora"
	"softlora/internal/core"
	"softlora/internal/lora"
	"softlora/internal/netserver"
	"softlora/internal/radio"
	"softlora/internal/sdr"
	"softlora/internal/timestamp"
)

// gwPaper is the paper's own configuration: one gateway on the shipped
// defaults (AIC onset, linear-regression FB, SF7, 2.4 Msps, 8-bit SDR,
// embedded server without a window) fed a closed loop of ProcessBatch calls
// over pre-rendered captures of high-SNR enrolled devices, 10% of them
// replays.
type gwPaper struct {
	gw       *softlora.Gateway
	uplinks  []softlora.Uplink
	replay   []bool
	batch    int
	next     int
	frame    int64 // frames delivered so far; the trace's frame IDs
	ids      []string
	stage    *stageReplay
	shadow   *netserver.NetworkServer // the traced Check target: a copy of the live database
	renderUs float64
	inputMB  float64
	workers  int
	workDir  string
	seed     int64
}

// The simulated channel's noise floor at a single gateway.
const gwNoiseFloordBm = -100

func newGWPaper(rc runConfig) (system, error) {
	nDev, nFrames, batch := 64, 128, 16
	if rc.tiny {
		nDev, nFrames, batch = 8, 16, 4
	}
	rng := rand.New(rand.NewSource(rc.seed))
	p := lora.DefaultParams(7)
	recv := &sdr.Receiver{ADCBits: 8, Rand: rand.New(rand.NewSource(rng.Int63()))}
	workers := runtime.NumCPU()
	gw, err := softlora.NewGateway(softlora.Config{
		Params:  p,
		SDR:     recv,
		Workers: workers,
		Rand:    rand.New(rand.NewSource(rng.Int63())),
	})
	if err != nil {
		return nil, err
	}
	g := &gwPaper{
		gw:      gw,
		batch:   batch,
		stage:   newStageReplay(p, recv, &core.AICDetector{LowPassCutoffHz: core.DefaultPrefilterCutoffHz}, &core.LinearRegressionEstimator{Params: p}),
		workers: workers,
		workDir: rc.workDir,
		seed:    rc.seed,
	}
	devs := make([]*softlora.SimDevice, nDev)
	for i := range devs {
		id := fmt.Sprintf("node-%02d", i)
		// RN2483-like −29..−20 ppm oscillators on 70..90 dB links: 24..44 dB SNR.
		devs[i] = softlora.NewSimDevice(id, -29+9*rng.Float64(), 30+20*rng.Float64(), 14, 70+20*rng.Float64(), 50+500*rng.Float64())
		gw.EnrollDevice(id, devs[i].Transmitter.BiasHz(p))
		g.ids = append(g.ids, id)
	}
	sim := &softlora.Simulation{Gateway: gw, NoiseFloordBm: gwNoiseFloordBm, Rand: rng}
	g.replay = pickReplays(rng, nFrames, 0.10)
	var render time.Duration
	for j := 0; j < nFrames; j++ {
		d := devs[j%nDev]
		t0 := 10 + 13*float64(j)
		start := time.Now()
		var capt *radio.Capture
		var records []timestamp.FrameRecord
		if g.replay[j] {
			em := emission(d.Transmitter, p, rng, t0, []byte{byte(j), 0, 0, 0})
			rem, err := replayEmission(em, t0, sdr.DefaultSampleRate, gwNoiseFloordBm, rng)
			if err != nil {
				return nil, err
			}
			capt, err = sim.CaptureEmission(rem)
			if err != nil {
				return nil, err
			}
		} else {
			d.Record(t0-2.5, []byte{byte(j)})
			capt, records, err = sim.RenderUplink(d, t0)
			if err != nil {
				return nil, err
			}
		}
		render += time.Since(start)
		g.inputMB += iqMB(capt)
		g.uplinks = append(g.uplinks, softlora.Uplink{Capture: capt, ClaimedID: d.ID, Records: records})
	}
	g.renderUs = float64(render) / float64(nFrames) / float64(time.Microsecond)
	return g, nil
}

func (g *gwPaper) step(t *tally, tr *tracer) error {
	ups := g.uplinks[g.next : g.next+g.batch]
	replay := g.replay[g.next : g.next+g.batch]
	first := g.frame
	g.next = (g.next + g.batch) % len(g.uplinks)
	g.frame += int64(len(ups))

	s := tr.begin(spanBatch, -1, -1, false)
	start := time.Now()
	res := g.gw.ProcessBatch(context.Background(), ups)
	latency := time.Since(start)
	tr.end(s)
	for i, r := range res {
		t.attempted++
		if r.Err != nil {
			t.failed++
			t.phyErrors++
			continue
		}
		t.observed++
		t.commit(replay[i], coreVerdict(r.Report.Verdict), 0, 0, latency)
	}
	if tr == nil {
		return nil
	}
	// Measurement-only work, after the batch: the same captures through
	// the serial Observe path, its stage replay, a Check on a copy of the
	// database and a single-receiver Fuse.
	for i, u := range ups {
		f := first + int64(i)
		s := tr.begin(spanObserve, -1, f, true)
		obs, err := g.gw.Observe(u.Capture, u.ClaimedID, "")
		tr.end(s)
		if rerr := g.stage.replay(tr, f, u.Capture, obs, err); rerr != nil {
			return rerr
		}
		if err != nil {
			continue
		}
		s = tr.begin(spanCheck, -1, f, true)
		g.shadow.Check(obs)
		tr.end(s)
		s = tr.begin(spanFuse, -1, f, true)
		_, err = netserver.Fuse([]netserver.PHYObservation{obs})
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// coreVerdict maps a gateway verdict back to the server's vocabulary.
func coreVerdict(v softlora.Verdict) core.Verdict {
	switch v {
	case softlora.VerdictReplay:
		return core.VerdictReplay
	case softlora.VerdictEnrolling:
		return core.VerdictEnrolling
	case softlora.VerdictPending:
		return core.VerdictPending
	default:
		return core.VerdictGenuine
	}
}

func (g *gwPaper) drain(*tally, *tracer) error { return nil }

func (g *gwPaper) passSteps() int { return len(g.uplinks) / g.batch }

func (g *gwPaper) startTrace() error {
	g.stage.reseed(g.seed + 1)
	var db bytes.Buffer
	if err := g.gw.SaveBiasDatabase(&db); err != nil {
		return err
	}
	g.shadow = netserver.New(netserver.Config{})
	return g.shadow.Load(&db)
}

func (g *gwPaper) server() *netserver.NetworkServer { return g.gw.NetworkServer() }

// persist writes a full snapshot: the single gateway runs no flusher.
func (g *gwPaper) persist() (string, error) {
	dir := filepath.Join(g.workDir, "gw-snapshot")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, g.gw.NetworkServer().SaveDir(nil, dir)
}

func (g *gwPaper) spotIDs() []string { return g.ids }

func (g *gwPaper) info() layerInfo {
	return layerInfo{renderUs: g.renderUs, batchSpan: spanBatch, workers: g.workers, replayed: g.stage.checked, inputMB: g.inputMB}
}

func (g *gwPaper) close() { g.uplinks = nil }
