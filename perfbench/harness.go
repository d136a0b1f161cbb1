package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"

	"softlora/internal/core"
	"softlora/internal/netserver"
	"softlora/internal/radio"
)

// system is one workload's deployment, built by a setup function and driven
// as a closed loop: the next unit of work is sent only after the previous
// one returned.
type system interface {
	// step delivers one unit of work (a batch, a round or a call) and
	// judges the verdicts it returned into t. tr is nil outside the traced
	// phase.
	step(t *tally, tr *tracer) error
	// drain commits whatever the system still holds, so that every frame
	// delivered in the phase has its verdict when the phase ends.
	drain(t *tally, tr *tracer) error
	// passSteps is how many steps make one pass over the inputs (the
	// warm-up).
	passSteps() int
	// startTrace prepares the traced phase (reseeds the stage replays).
	startTrace() error
	// server is the network server that holds the bias database.
	server() *netserver.NetworkServer
	// persist makes the database durable in a snapshot directory (a final
	// flush, or a full save where no flusher runs) and returns it.
	persist() (dir string, err error)
	// spotIDs names the devices the recovery spot check compares.
	spotIDs() []string
	// info reports what only the workload knows about its layers.
	info() layerInfo
	// close stops background work and releases the inputs.
	close()
}

// layerInfo is what a workload reports about its own layers.
type layerInfo struct {
	renderUs  float64 // mean channel rendering time per capture in set-up
	batchSpan string  // the span whose mean is softlora.batch_ms
	workers   int     // goroutines the batch span keeps busy
	flush     netserver.FlushStats
	replayed  int64   // captures whose stage replay matched Observe
	inputMB   float64 // the pre-rendered captures' I/Q, held for the whole run
}

// tally judges committed verdicts against the frames' construction labels
// and keeps the verdict latencies.
type tally struct {
	attempted   int64 // distinct frames delivered
	failed      int64 // frames that ended with an error on every copy
	phyErrors   int64 // copies whose PHY stage returned an error
	observed    int64 // observations handed to the network server
	frames      int64 // distinct frames with a committed verdict
	genuine     int64
	replays     int64
	falseAlarms int64 // genuine frames judged replay
	misses      int64 // replay frames not judged replay
	outliers    int64 // Σ FrameVerdict.OutliersRejected
	excluded    int64 // Σ FrameVerdict.QuarantinedExcluded
	pendingMax  int   // most frames held in the window after a call (traced phase)
	latencyMs   []float64

	// log, when non-nil, receives every committed verdict in commit order
	// (the determinism digest).
	log []byte
}

// commit records one frame's committed verdict.
func (t *tally) commit(replay bool, v core.Verdict, outliers, excluded int, latency time.Duration) {
	t.frames++
	if replay {
		t.replays++
		if v != core.VerdictReplay {
			t.misses++
		}
	} else {
		t.genuine++
		if v == core.VerdictReplay {
			t.falseAlarms++
		}
	}
	t.outliers += int64(outliers)
	t.excluded += int64(excluded)
	t.latencyMs = append(t.latencyMs, float64(latency)/float64(time.Millisecond))
	if t.log != nil {
		t.log = append(t.log, byte(v))
	}
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  uint64
	stats    netserver.Stats
}

// cpuTime is the process's user+sys time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeUsage(s *netserver.NetworkServer) usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:     time.Now(),
		cpu:      cpuTime(),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  ms.PauseTotalNs,
		stats:    s.Stats(),
	}
}

// A measured phase is cut into nSlices equal stretches. The end-to-end
// figures are medians over the quietSlices of them in which the hypervisor
// stole the least CPU time from the machine, so a burst of interference on
// a shared host drops out of the result instead of moving it.
const (
	nSlices     = 8
	quietSlices = 4
)

// slice is one stretch of a phase: what it committed, in what wall and CPU
// time, how much CPU time the hypervisor stole meanwhile, and the
// latencies of its verdicts.
type slice struct {
	wall, cpu, steal time.Duration
	frames           int64
	latencyMs        []float64
}

// latencyQuantile is the q-quantile of the slice's verdict latencies.
func (s slice) latencyQuantile(q float64) float64 {
	lat := slices.Clone(s.latencyMs)
	sort.Float64s(lat)
	return percentile(lat, q)
}

// stealShare is the share of the machine's CPU capacity stolen during s.
func (s slice) stealShare() float64 {
	return s.steal.Seconds() / (s.wall.Seconds() * float64(runtime.NumCPU()))
}

// phase is one measured stretch of the closed loop.
type phase struct {
	tally
	peakMB   float64 // peak resident set over the memory window, when asked for
	slices   []slice
	quiet    []slice // the slices the end-to-end figures come from
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	stats    netserver.Stats // counter deltas over the phase
}

// memPasses is the memory window: peak_rss_mb is read after this many
// passes over the inputs, a fixed amount of work, so that it does not grow
// with the frames a faster build gets through in the measured time.
const memPasses = 16

// measure drives sys for the given duration, then drains it, and returns
// what the stretch cost, slice by slice. The loop checks the clock between
// units of work. With mem set, it also reads the peak resident set once the
// memory window's work is done, or at the end if the phase is shorter.
func measure(sys system, d time.Duration, tr *tracer, mem bool) (*phase, error) {
	runtime.GC()
	p := &phase{}
	memSteps, steps := memPasses*sys.passSteps(), 0
	readPeak := func() (err error) {
		if mem && p.peakMB == 0 {
			p.peakMB, err = peakRSSMB()
		}
		return err
	}
	u0 := takeUsage(sys.server())
	lastWall, lastCPU, lastSteal, lastFrames, lat := u0.wall, u0.cpu, stealTime(), int64(0), 0
	for k := 1; k <= nSlices; k++ {
		deadline := u0.wall.Add(d * time.Duration(k) / nSlices)
		for time.Now().Before(deadline) {
			if err := sys.step(&p.tally, tr); err != nil {
				return nil, err
			}
			if steps++; steps == memSteps {
				if err := readPeak(); err != nil {
					return nil, err
				}
			}
		}
		if k == nSlices {
			if err := sys.drain(&p.tally, tr); err != nil {
				return nil, err
			}
		}
		now, cpu, steal := time.Now(), cpuTime(), stealTime()
		p.slices = append(p.slices, slice{
			wall:      now.Sub(lastWall),
			cpu:       cpu - lastCPU,
			steal:     steal - lastSteal,
			frames:    p.frames - lastFrames,
			latencyMs: p.latencyMs[lat:],
		})
		lastWall, lastCPU, lastSteal, lastFrames, lat = now, cpu, steal, p.frames, len(p.latencyMs)
	}
	var busy []slice // slices that committed frames
	for _, s := range p.slices {
		if s.frames > 0 {
			busy = append(busy, s)
		}
	}
	sort.SliceStable(busy, func(i, j int) bool { return busy[i].stealShare() < busy[j].stealShare() })
	p.quiet = busy[:min(len(busy), quietSlices)]
	if err := readPeak(); err != nil {
		return nil, err
	}
	u1 := takeUsage(sys.server())
	p.wall = u1.wall.Sub(u0.wall)
	p.mallocs = u1.mallocs - u0.mallocs
	p.bytes = u1.bytes - u0.bytes
	p.gcCycles = u1.gcCycles - u0.gcCycles
	p.gcPause = time.Duration(u1.gcPause - u0.gcPause)
	p.stats = statsDelta(u1.stats, u0.stats)
	if p.frames == 0 {
		return nil, fmt.Errorf("no frame committed in %v", p.wall)
	}
	return p, nil
}

func statsDelta(a, b netserver.Stats) netserver.Stats {
	return netserver.Stats{
		FramesChecked:        a.FramesChecked - b.FramesChecked,
		Observations:         a.Observations - b.Observations,
		DuplicatesSuppressed: a.DuplicatesSuppressed - b.DuplicatesSuppressed,
		Evicted:              a.Evicted - b.Evicted,
		WindowMerged:         a.WindowMerged - b.WindowMerged,
		LateObservations:     a.LateObservations - b.LateObservations,
		VerdictsRevised:      a.VerdictsRevised - b.VerdictsRevised,
		WindowShed:           a.WindowShed - b.WindowShed,
		WindowEventsDropped:  a.WindowEventsDropped - b.WindowEventsDropped,
		GatewaysQuarantined:  a.GatewaysQuarantined - b.GatewaysQuarantined,
	}
}

// checkWindow fails a phase in which the dedup window shed a frame or
// dropped an event: either means a verdict was forced or lost.
func checkWindow(st netserver.Stats) error {
	if st.WindowShed > 0 || st.WindowEventsDropped > 0 {
		return fmt.Errorf("window shed %d frames and dropped %d events", st.WindowShed, st.WindowEventsDropped)
	}
	return nil
}

func (p *phase) framesPerSecond() float64 { return float64(p.frames) / p.wall.Seconds() }

// quietMedian is the median of f over the quiet slices.
func (p *phase) quietMedian(f func(s slice) float64) float64 {
	v := make([]float64, len(p.quiet))
	for i, s := range p.quiet {
		v[i] = f(s)
	}
	return median(v)
}

// minQuietSamples is the fewest latency samples any quiet slice has.
func (p *phase) minQuietSamples() int {
	n := len(p.latencyMs)
	for _, s := range p.quiet {
		n = min(n, len(s.latencyMs))
	}
	return n
}

// percentile returns the q-quantile (0..1) of sorted values by the
// nearest-rank rule.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailQuantile is the highest of 0.90 and below that leaves at least ten
// samples beyond it, so a reported tail always rests on ten or more
// samples. The tail is the p90, not the p99: on a shared host the slowest
// 1% of verdicts are the ones other tenants delayed, and their share moves
// from run to run, while the p90 stays within the program's own spread.
func tailQuantile(n int) float64 {
	q := 0.90
	for q > 0.5 && float64(n)*(1-q) < 10 {
		q -= 0.01
	}
	return q
}

// median returns the median of values (which it sorts).
func median(values []float64) float64 {
	sort.Float64s(values)
	n := len(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// iqMB is the size of a capture's I/Q samples in MB.
func iqMB(c *radio.Capture) float64 { return float64(len(c.IQ)) * 16 / (1 << 20) }

// releaseMemory returns freed heap to the OS between set-ups so one
// set-up's garbage does not inflate the next one's footprint.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
