package main

import (
	"fmt"
	"math/bits"
	"time"

	"softlora/internal/netserver"
)

// windowModel delivers observations to a network server whose dedup
// window is on, and mirrors the window's commit rule from outside so it
// knows when each frame's verdict became due: when the Observe that produced
// the copy from the last of MaxReceivers gateways started, or, for a frame
// that never fills, when the call that moved the observation clock past its
// hold started. Verdict latency runs from that moment to the return of the
// call that handed the verdict back, so it covers the last copy's PHY stage
// and the server, and excludes the hold itself. The model also proves that
// every frame gets exactly one committed verdict.
//
// Every copy of a frame must reach the server before the frame's verdict
// commits: the model forgets a frame once it commits, so a later copy would
// open a frame that never gets a verdict, and the drain would fail.
type windowModel struct {
	hold      float64
	receivers int
	clock     float64                // the window's observation clock: the latest arrival seen
	pending   map[string]*modelFrame // frames delivered and not yet committed, by frame ID
	order     []*modelFrame          // frames in the order they opened, until due
}

// modelFrame is one frame as the model sees it.
type modelFrame struct {
	replay   bool
	gateways uint32 // bit per gateway that delivered a copy
	opened   float64
	due      time.Time                  // when the verdict became due; zero until then
	copies   []netserver.PHYObservation // kept only while tracing
}

// obsMeta is what the benchmark knows about an observation it delivers.
type obsMeta struct {
	gateway  int
	replay   bool
	observed time.Time // when the Observe that produced the copy started
}

func newWindowModel(hold float64, receivers int) *windowModel {
	return &windowModel{hold: hold, receivers: receivers, pending: make(map[string]*modelFrame)}
}

// deliver registers one observation before the call that carries it and
// reports whether it opened a new frame.
func (w *windowModel) deliver(o netserver.PHYObservation, m obsMeta, keep bool) bool {
	if o.ArrivalTime > w.clock {
		w.clock = o.ArrivalTime
	}
	f, ok := w.pending[o.FrameID]
	if !ok {
		f = &modelFrame{replay: m.replay, opened: w.clock}
		w.pending[o.FrameID] = f
		w.order = append(w.order, f)
	}
	f.gateways |= 1 << m.gateway
	if f.due.IsZero() && bits.OnesCount32(f.gateways) >= w.receivers {
		f.due = m.observed
	}
	if keep {
		f.copies = append(f.copies, o)
	}
	return !ok
}

// expire marks the frames whose hold the clock has passed as due at the
// start of the call that moved the clock.
func (w *windowModel) expire(start time.Time) {
	i := 0
	for ; i < len(w.order) && w.order[i].opened+w.hold <= w.clock; i++ {
		if w.order[i].due.IsZero() {
			w.order[i].due = start
		}
	}
	w.order = w.order[i:]
}

// commit judges the verdicts a call returned at end.
func (w *windowModel) commit(evs []netserver.FrameVerdict, end time.Time, t *tally, tr *tracer) error {
	for _, ev := range evs {
		if ev.Revised {
			continue // a notification about a committed frame, not a verdict
		}
		f, ok := w.pending[ev.FrameID]
		if !ok {
			return fmt.Errorf("verdict for frame %s, which is not pending: a second committed verdict", ev.FrameID)
		}
		if f.due.IsZero() {
			return fmt.Errorf("frame %s committed before its verdict was due", ev.FrameID)
		}
		delete(w.pending, ev.FrameID)
		t.commit(f.replay, ev.Verdict, ev.OutliersRejected, ev.QuarantinedExcluded, end.Sub(f.due))
		if tr != nil {
			s := tr.begin(spanFuse, -1, -1, true)
			_, err := netserver.Fuse(f.copies)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("fusing frame %s: %w", ev.FrameID, err)
			}
		}
	}
	return nil
}

// checkBatch hands obs to the server as one CheckBatch call and judges the
// verdicts it returns.
func (w *windowModel) checkBatch(srv *netserver.NetworkServer, obs []netserver.PHYObservation, meta []obsMeta, t *tally, tr *tracer) error {
	for i, o := range obs {
		if w.deliver(o, meta[i], tr != nil) {
			t.attempted++
		}
	}
	t.observed += int64(len(obs))
	s := tr.begin(spanCheckBatch, -1, -1, false)
	start := time.Now()
	evs, err := srv.CheckBatch(obs)
	end := time.Now()
	tr.end(s)
	if err != nil {
		return fmt.Errorf("CheckBatch: %w", err)
	}
	w.expire(start)
	if tr != nil {
		t.pendingMax = max(t.pendingMax, srv.PendingFrames())
	}
	return w.commit(evs, end, t, tr)
}

// drain force-commits everything the window holds (the end-of-stream
// flush, due at this call) and proves that every delivered frame now has
// its verdict.
func (w *windowModel) drain(srv *netserver.NetworkServer, t *tally, tr *tracer) error {
	start := time.Now()
	evs := srv.DrainWindow()
	end := time.Now()
	for _, f := range w.pending {
		if f.due.IsZero() {
			f.due = start
		}
	}
	w.order = w.order[:0]
	if err := w.commit(evs, end, t, tr); err != nil {
		return err
	}
	if len(w.pending) > 0 {
		return fmt.Errorf("%d frames have no committed verdict after the drain", len(w.pending))
	}
	return nil
}
