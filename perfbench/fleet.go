package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"softlora"
	"softlora/internal/core"
	"softlora/internal/lora"
	"softlora/internal/netserver"
	"softlora/internal/radio"
	"softlora/internal/sdr"
)

// fleet is the full I/Q → verdict path through the network server: three
// gateways on the top floor of the paper's building, devices on floors 1–3,
// dechirp onset and dechirp-FFT FB, one shared server with the dedup
// window, health tracking and a background flusher. Each round, every
// gateway observes its own pre-rendered copies of the round's frames, then
// each gateway's copies go to the server in their own CheckBatch call, so
// the window merges them across calls.
type fleet struct {
	sites    []*fleetSite
	srv      *netserver.NetworkServer
	fl       *netserver.Flusher
	closed   bool
	dir      string
	model    *windowModel
	devices  []string // claimed device per frame
	replay   []bool
	ids      []string
	round    int // frames per round
	next     int // next frame of the pass
	pass     int64
	span     float64 // observation-clock seconds one pass covers
	workers  int
	renderUs float64
	inputMB  float64
	seed     int64
}

// fleetSite is one gateway with its pre-rendered copy of every frame.
type fleetSite struct {
	gw    *softlora.Gateway
	stage *stageReplay
	pos   radio.Position
	caps  []*radio.Capture
	start []float64 // each capture's first-pass start time
	// The current round's outcome, per frame of the round, and when each
	// Observe started.
	obs   []netserver.PHYObservation
	errs  []error
	began []time.Time
}

const (
	fleetGateways = 3
	fleetSpacing  = 1.0 // seconds between frames on the channel timeline
)

func newFleet(rc runConfig) (system, error) {
	nDev, nFrames, round := 33, 96, 8
	if rc.tiny {
		nDev, nFrames, round = 6, 12, 4
	}
	rng := rand.New(rand.NewSource(rc.seed))
	b := radio.DefaultBuilding()
	p := lora.DefaultParams(7)
	// A frame that misses a receiver commits once the clock is a round and
	// a quarter past its first copy.
	hold := 1.25 * float64(round) * fleetSpacing
	srv := netserver.New(netserver.Config{
		Window: netserver.WindowConfig{Hold: hold, MaxReceivers: fleetGateways},
		Health: netserver.HealthConfig{Enabled: true},
	})
	f := &fleet{
		srv:     srv,
		dir:     filepath.Join(rc.workDir, "fleet-snapshots"),
		model:   newWindowModel(hold, fleetGateways),
		round:   round,
		span:    float64(nFrames) * fleetSpacing,
		workers: min(runtime.NumCPU(), fleetGateways),
		seed:    rc.seed,
	}
	cols := b.Columns()
	for i := 0; i < fleetGateways; i++ {
		pos, err := b.Column(cols[i*(len(cols)-1)/(fleetGateways-1)], b.Floors)
		if err != nil {
			return nil, err
		}
		recv := &sdr.Receiver{ADCBits: 8, Rand: rand.New(rand.NewSource(rng.Int63()))}
		gw, err := softlora.NewGateway(softlora.Config{
			Params:    p,
			SDR:       recv,
			Onset:     softlora.OnsetDechirp,
			FB:        softlora.FBDechirpFFT,
			GatewayID: fmt.Sprintf("gw-%d", i),
			Server:    srv,
			Rand:      rand.New(rand.NewSource(rng.Int63())),
		})
		if err != nil {
			return nil, err
		}
		stage := newStageReplay(p, recv, &core.DechirpOnsetDetector{Params: p}, &core.DechirpFFTEstimator{Params: p})
		f.sites = append(f.sites, &fleetSite{gw: gw, stage: stage, pos: pos})
	}
	txs := make([]*lora.Transmitter, nDev)
	where := make([]radio.Position, nDev)
	for i := range txs {
		id := fmt.Sprintf("node-%02d", i)
		pos, err := b.Column(cols[i%len(cols)], 1+i%3)
		if err != nil {
			return nil, err
		}
		txs[i] = &lora.Transmitter{ID: id, BiasPPM: -29 + 9*rng.Float64(), PowerdBm: 14}
		where[i] = pos
		srv.Enroll(id, txs[i].BiasHz(p), 10)
		f.ids = append(f.ids, id)
	}
	f.replay = pickReplays(rng, nFrames, 0.10)
	var render time.Duration
	for j := 0; j < nFrames; j++ {
		d := j % nDev
		t0 := 10 + fleetSpacing*float64(j)
		em := emission(txs[d], p, rng, t0, []byte{byte(j), 0, 0, 0})
		if f.replay[j] {
			// The replayer transmits next to gw-0; the other gateways hear
			// it across the building.
			var err error
			if em, err = replayEmission(em, t0, sdr.DefaultSampleRate, b.NoiseFloordBm, rng); err != nil {
				return nil, err
			}
		}
		f.devices = append(f.devices, txs[d].ID)
		for i, s := range f.sites {
			link := em
			switch {
			case !f.replay[j]:
				link.PathLossdB, link.Distance = b.LossdB(where[d], s.pos), b.Distance(where[d], s.pos)
			case i > 0:
				link.PathLossdB, link.Distance = b.LossdB(f.sites[0].pos, s.pos), b.Distance(f.sites[0].pos, s.pos)
			}
			start := time.Now()
			sim := softlora.Simulation{Gateway: s.gw, NoiseFloordBm: b.NoiseFloordBm, Rand: rng}
			capt, err := sim.CaptureEmission(link)
			render += time.Since(start)
			if err != nil {
				return nil, err
			}
			s.caps = append(s.caps, capt)
			f.inputMB += iqMB(capt)
			s.start = append(s.start, capt.Start)
		}
	}
	f.renderUs = float64(render) / float64(nFrames*fleetGateways) / float64(time.Microsecond)
	if err := os.RemoveAll(f.dir); err != nil {
		return nil, err
	}
	fl, err := netserver.StartFlusher(srv, f.dir, netserver.FlusherOptions{})
	if err != nil {
		return nil, err
	}
	f.fl = fl
	return f, nil
}

// frameSeq numbers frame j of the current pass across passes.
func (f *fleet) frameSeq(j int) int64 { return f.pass*int64(len(f.devices)) + int64(j) }

func (f *fleet) step(t *tally, tr *tracer) error {
	lo, hi := f.next, f.next+f.round
	// Every gateway observes its copies of the round; the workers share the
	// gateways, and one gateway's copies stay on one worker, in order.
	s := tr.begin(spanRound, -1, -1, false)
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < f.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(f.sites); i = int(next.Add(1)) - 1 {
				f.observe(f.sites[i], lo, hi, tr, s)
			}
		}()
	}
	wg.Wait()
	tr.end(s)

	for j := lo; j < hi; j++ {
		heard := false
		for _, site := range f.sites {
			if site.errs[j-lo] == nil {
				heard = true
			} else {
				t.phyErrors++
			}
		}
		if !heard {
			t.attempted++
			t.failed++
		}
	}
	for i, site := range f.sites {
		var obs []netserver.PHYObservation
		var meta []obsMeta
		for j := lo; j < hi; j++ {
			if site.errs[j-lo] == nil {
				obs = append(obs, site.obs[j-lo])
				meta = append(meta, obsMeta{gateway: i, replay: f.replay[j], observed: site.began[j-lo]})
			}
		}
		if len(obs) == 0 {
			continue
		}
		if err := f.model.checkBatch(f.srv, obs, meta, t, tr); err != nil {
			return err
		}
	}
	if tr != nil {
		// Stage replays, after the round, in each gateway's observe order.
		for _, site := range f.sites {
			for j := lo; j < hi; j++ {
				if err := site.stage.replay(tr, f.frameSeq(j), site.caps[j], site.obs[j-lo], site.errs[j-lo]); err != nil {
					return err
				}
			}
		}
	}
	f.next = hi
	if f.next == len(f.devices) {
		f.next = 0
		f.pass++
	}
	return nil
}

// observe runs one gateway's Observe over frames [lo, hi) of the pass. The
// captures move along the channel timeline pass by pass, so the window's
// observation clock keeps advancing.
func (f *fleet) observe(site *fleetSite, lo, hi int, tr *tracer, parent int) {
	site.obs = site.obs[:0]
	site.errs = site.errs[:0]
	site.began = site.began[:0]
	for j := lo; j < hi; j++ {
		seq := f.frameSeq(j)
		c := site.caps[j]
		c.Start = site.start[j] + float64(f.pass)*f.span
		s := tr.begin(spanObserve, parent, seq, false)
		site.began = append(site.began, time.Now())
		obs, err := site.gw.Observe(c, f.devices[j], strconv.FormatInt(seq, 10))
		tr.end(s)
		obs.UplinkIndex = seq
		site.obs = append(site.obs, obs)
		site.errs = append(site.errs, err)
	}
}

func (f *fleet) drain(t *tally, tr *tracer) error { return f.model.drain(f.srv, t, tr) }

func (f *fleet) passSteps() int { return len(f.devices) / f.round }

func (f *fleet) startTrace() error {
	for i, s := range f.sites {
		s.stage.reseed(f.seed + int64(i) + 1)
	}
	return nil
}

func (f *fleet) server() *netserver.NetworkServer { return f.srv }

// persist stops the flusher, which writes a final flush of every dirty
// shard.
func (f *fleet) persist() (string, error) {
	if !f.closed {
		f.closed = true
		if err := f.fl.Close(); err != nil {
			return "", err
		}
	}
	return f.dir, nil
}

func (f *fleet) spotIDs() []string { return f.ids }

func (f *fleet) info() layerInfo {
	var replayed int64
	for _, s := range f.sites {
		replayed += s.stage.checked
	}
	return layerInfo{renderUs: f.renderUs, batchSpan: spanRound, workers: f.workers, flush: f.fl.Stats(), replayed: replayed, inputMB: f.inputMB}
}

func (f *fleet) close() {
	if !f.closed {
		f.closed = true
		_ = f.fl.Close() // the run is being abandoned or is over
	}
	f.sites = nil
}
