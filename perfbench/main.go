// Command perfbench is the repository's end-to-end benchmark: digitized
// I/Q in, committed replay verdict out, through the gateway, the network
// server's dedup window and its background flusher. See README.md for the
// workloads, the metrics and which layer should move which metric.
//
//	perfbench --workload gw-paper --seed 1 --seconds 10 --trace 0
//	perfbench compare A.json B.json
//
// A run prints a human-readable report, then, as its last line, one JSON
// object with the keys correct, attempted, failed and metrics. With
// --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones from a traced run. A run
// whose outputs fail a correctness check exits non-zero without printing a
// result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test scale
	setups   int    // set-up repetitions; setup_s is their median
	workDir  string // scratch directory for snapshots, removed at exit
	outDir   string // where results and traces are written
}

// workloads maps a workload name to the function that builds and warms it.
var workloads = map[string]func(rc runConfig) (system, error){
	"gw-paper":       newGWPaper,
	"fleet-building": newFleet,
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "gw-paper or fleet-building")
	seed := fs.Int64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	out := fs.String("out", ".bench_build", "directory for result files, traces and scratch snapshots")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload gw-paper|fleet-building, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	rc := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		setups:   5,
		outDir:   *out,
	}
	res, err := runBench(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", rc.workload, rc.seed, err)
		return 1
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runBench makes a scratch directory, runs the workload and writes the
// result file and, when traced, the spans.
func runBench(rc runConfig) (*result, error) {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(rc.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	rc.workDir = work
	res, tr, err := run(rc)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(rc.outDir, "results", fmt.Sprintf("%s-seed%d-trace%d", rc.workload, rc.seed, b2i(rc.trace)))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return nil, err
	}
	if tr != nil {
		n, err := tr.write(base + ".spans.jsonl")
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.Notes = append(res.Notes, fmt.Sprintf("spans: %d recorded, the first %d written to %s.spans.jsonl", len(tr.spans), n, base))
	}
	if err := res.save(base + ".json"); err != nil {
		return nil, fmt.Errorf("writing result: %w", err)
	}
	return res, nil
}

// run builds the workload rc.setups times (checking that every build gives
// the same warm-up verdicts and database), measures the last build, and
// checks recovery of its database.
func run(rc runConfig) (*result, *tracer, error) {
	var sys system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	setupS := make([]float64, 0, rc.setups)
	var dig string
	var warmFailed int64
	var warm *tally
	for i := 0; i < rc.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		releaseMemory()
		start := time.Now()
		s, w, err := setup(rc)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		sys, warm = s, w
		d, err := stateDigest(sys, warm.log)
		if err != nil {
			return nil, nil, err
		}
		if i > 0 && (d != dig || warm.failed != warmFailed) {
			return nil, nil, fmt.Errorf("set-up %d gave digest %s and %d failures, set-up 0 gave %s and %d: the workload is not deterministic",
				i, d, warm.failed, dig, warmFailed)
		}
		dig, warmFailed = d, warm.failed
	}
	res := &result{Workload: rc.workload, Seed: rc.seed, Trace: rc.trace, Host: fingerprint(), Digest: dig, WarmupFailed: warmFailed}
	res.Notes = append(res.Notes, fmt.Sprintf("warm-up pass (deterministic): false_alarm_rate %.6g share (%d of %d genuine frames judged replay), miss_rate %.6g share (%d of %d replays not judged replay)",
		ratio(warm.falseAlarms, warm.genuine), warm.falseAlarms, warm.genuine, ratio(warm.misses, warm.replays), warm.misses, warm.replays))
	m := &metrics{}
	var tr *tracer
	if !rc.trace {
		// The peak resident set is the measured phase's alone: the set-ups'
		// peaks are forgotten, and the inputs are subtracted.
		releaseMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, nil, fmt.Errorf("resetting the peak resident set: %w", err)
		}
		p, err := measure(sys, seconds(rc.seconds), nil, true)
		if err != nil {
			return nil, nil, err
		}
		if err := checkWindow(p.stats); err != nil {
			return nil, nil, err
		}
		recoverS, err := recoverDB(sys)
		if err != nil {
			return nil, nil, err
		}
		inputMB := sys.info().inputMB
		res.Notes = append(res.Notes, fmt.Sprintf("memory: peak resident set %.1f MB over the first %d passes of the measured phase, of which %.1f MB are the pre-rendered inputs", p.peakMB, memPasses, inputMB))
		endToEnd(m, p, median(setupS), recoverS, p.peakMB-inputMB)
		res.note(p)
		res.Attempted, res.Failed = p.attempted, p.failed
	} else {
		// The untraced half gives the baseline for the tracing overhead and
		// the runtime counters; the traced half gives the spans.
		p, err := measure(sys, seconds(rc.seconds/2), nil, false)
		if err != nil {
			return nil, nil, err
		}
		tr = newTracer()
		if err := sys.startTrace(); err != nil {
			return nil, nil, err
		}
		tp, err := measure(sys, seconds(rc.seconds/2), tr, false)
		if err != nil {
			return nil, nil, err
		}
		for _, ph := range []*phase{p, tp} {
			if err := checkWindow(ph.stats); err != nil {
				return nil, nil, err
			}
		}
		if _, err := recoverDB(sys); err != nil {
			return nil, nil, err
		}
		if err := perLayer(m, sys, p, tp, tr, rc.workDir); err != nil {
			return nil, nil, err
		}
		res.note(tp)
		res.Attempted, res.Failed = p.attempted+tp.attempted, p.failed+tp.failed
	}
	res.Metrics = m.list
	return res, tr, nil
}

// setup builds the workload and runs its warm-up pass, whose tally holds
// the ordered verdict log.
func setup(rc runConfig) (system, *tally, error) {
	sys, err := workloads[rc.workload](rc)
	if err != nil {
		return nil, nil, err
	}
	warm := &tally{log: []byte{}}
	for i := 0; i < sys.passSteps(); i++ {
		if err := sys.step(warm, nil); err != nil {
			sys.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := sys.drain(warm, nil); err != nil {
		sys.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return sys, warm, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// metric is one named, measured value with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics struct{ list []metric }

func (m *metrics) add(name, unit string, v float64) {
	m.list = append(m.list, metric{Name: name, Value: v, Unit: unit})
}

// endToEnd fills the user-visible metrics of an untraced phase: the rates
// and percentiles are medians over its quiet slices.
func endToEnd(m *metrics, p *phase, setupS, recoverS, rssMB float64) {
	tail := tailQuantile(p.minQuietSamples())
	m.add("frames_per_s", "1/s", p.quietMedian(func(s slice) float64 { return float64(s.frames) / s.wall.Seconds() }))
	m.add("verdict_latency_p50_ms", "ms", p.quietMedian(func(s slice) float64 { return s.latencyQuantile(0.50) }))
	m.add("verdict_latency_p90_ms", "ms", p.quietMedian(func(s slice) float64 { return s.latencyQuantile(tail) }))
	m.add("cpu_ms_per_frame", "ms", p.quietMedian(func(s slice) float64 {
		return float64(s.cpu) / float64(time.Millisecond) / float64(s.frames)
	}))
	m.add("setup_s", "s", setupS)
	m.add("recover_s", "s", recoverS)
	m.add("peak_rss_mb", "MB", rssMB)
}

// result is one run's outcome; its file form carries the host fingerprint.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Host     host   `json:"host"`
	Digest   string `json:"digest"`
	// WarmupFailed counts the failed frames of the deterministic warm-up
	// pass; Attempted and Failed cover the timed phases.
	WarmupFailed int64    `json:"warmup_failed"`
	Attempted    int64    `json:"attempted"`
	Failed       int64    `json:"failed"`
	Metrics      []metric `json:"metrics"`
	Notes        []string `json:"notes"`
}

// note records the counts behind the rates and percentiles.
func (r *result) note(p *phase) {
	q := tailQuantile(p.minQuietSamples())
	r.Notes = append(r.Notes,
		fmt.Sprintf("frames: %d attempted, %d committed (%d genuine, %d replay), %d failed, %d PHY errors",
			p.attempted, p.frames, p.genuine, p.replays, p.failed, p.phyErrors),
		fmt.Sprintf("verdicts: false_alarm_rate %.6g share (%d of %d genuine frames judged replay), miss_rate %.6g share (%d of %d replays not judged replay)",
			ratio(p.falseAlarms, p.genuine), p.falseAlarms, p.genuine, ratio(p.misses, p.replays), p.misses, p.replays),
		fmt.Sprintf("latency: %d samples, at least %d in each quiet slice; the tail metric is the p%.0f",
			len(p.latencyMs), p.minQuietSamples(), q*100))
	var fps, cpu, p50, tail, p99, steal []string
	for _, s := range p.slices {
		fps = append(fps, fmt.Sprintf("%.4g", float64(s.frames)/s.wall.Seconds()))
		cpu = append(cpu, fmt.Sprintf("%.4g", float64(s.cpu)/float64(time.Millisecond)/float64(max(s.frames, 1))))
		p50 = append(p50, fmt.Sprintf("%.4g", s.latencyQuantile(0.50)))
		tail = append(tail, fmt.Sprintf("%.4g", s.latencyQuantile(q)))
		p99 = append(p99, fmt.Sprintf("%.4g", s.latencyQuantile(0.99)))
		steal = append(steal, fmt.Sprintf("%.1f", 100*s.stealShare()))
	}
	r.Notes = append(r.Notes, fmt.Sprintf("slices: frames/s %s; CPU ms/frame %s; p50 ms %s; p%.0f ms %s; p99 ms (reported, not a metric) %s; steal %%: %s; the metrics are medians over the %d with the least steal time",
		strings.Join(fps, " "), strings.Join(cpu, " "), strings.Join(p50, " "), q*100, strings.Join(tail, " "), strings.Join(p99, " "), strings.Join(steal, " "), len(p.quiet)))
}

func ratio(k, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

func (r *result) save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes the report and, last, the one-line JSON result.
func (r *result) print(f io.Writer) error {
	fmt.Fprintf(f, "# perfbench %s seed %d trace %d\n", r.Workload, r.Seed, b2i(r.Trace))
	fmt.Fprintf(f, "# host: %s\n", r.Host)
	fmt.Fprintf(f, "# digest %s (warm-up verdicts + bias database), %d warm-up failures\n", r.Digest, r.WarmupFailed)
	for _, n := range r.Notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	out := map[string]any{}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		fmt.Fprintf(f, "%-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}
