package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"softlora/internal/netserver"
)

// stateDigest hashes the warm-up verdict log with the bias database as
// SaveBiasDatabase writes it.
func stateDigest(sys system, log []byte) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%d:", len(log))
	h.Write(log)
	if err := sys.server().Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// recoverDB persists the live database, recovers it into fresh servers
// with LoadDir over and over for two seconds, spot-checks every recovery
// against the live records, and returns the fastest recovery (load plus
// spot check). A small database's LoadDir is a few dozen file reads whose
// times split into a fast and a slow mode in proportions that drift from
// process to process; the median and even the fastest percentile move with
// those proportions, the fastest recovery does not.
func recoverDB(sys system) (float64, error) {
	dir, err := sys.persist()
	if err != nil {
		return 0, fmt.Errorf("persisting the database: %w", err)
	}
	live := sys.server()
	var times []float64
	for begin := time.Now(); len(times) == 0 || time.Since(begin) < 2*time.Second; {
		fresh := netserver.New(netserver.Config{})
		start := time.Now()
		if _, err := fresh.LoadDir(nil, dir); err != nil {
			return 0, fmt.Errorf("recovery: %w", err)
		}
		if err := spotCheck(live, fresh, sys.spotIDs()); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return slices.Min(times), nil
}

// spotCheck compares a sample of records between the live and the
// recovered database.
func spotCheck(live, recovered *netserver.NetworkServer, ids []string) error {
	if a, b := live.Devices(), recovered.Devices(); a != b {
		return fmt.Errorf("recovered %d devices, live database has %d", b, a)
	}
	for _, id := range ids {
		a, okA := live.Record(id)
		b, okB := recovered.Record(id)
		if okA != okB || a != b {
			return fmt.Errorf("device %s differs after recovery: live %+v (%v), recovered %+v (%v)", id, a, okA, b, okB)
		}
	}
	return nil
}

// perLayer fills the per-layer metrics from the untraced half p (runtime
// counters, the throughput baseline) and the traced half tp (spans).
func perLayer(m *metrics, sys system, p, tp *phase, tr *tracer, workDir string) error {
	st, shadow := tr.summary()
	info := sys.info()

	phy := st[spanObserve].meanUs()
	sdrUs, onsetUs, fbUs := st[spanDownconv].meanUs(), st[spanOnset].meanUs(), st[spanFB].meanUs()
	var other float64
	if phy > 0 {
		other = phy - sdrUs - onsetUs - fbUs
	}
	m.add("radio.render_us", "us", info.renderUs)
	m.add("sdr.downconvert_us", "us", sdrUs)
	m.add("core.onset_us", "us", onsetUs)
	m.add("core.fb_us", "us", fbUs)
	m.add("softlora.phy_us", "us", phy)
	m.add("softlora.phy_other_us", "us", other)
	m.add("softlora.phy_errors", "count", float64(tp.phyErrors))
	batch := st[info.batchSpan]
	var busy float64
	if batch.total > 0 {
		busy = float64(st[spanObserve].total) / (float64(batch.total) * float64(info.workers))
	}
	m.add("softlora.batch_ms", "ms", batch.meanUs()/1e3)
	m.add("softlora.worker_busy_share", "share", busy)

	check := st[spanCheck].meanUs()
	if cb := st[spanCheckBatch]; cb.count > 0 && tp.observed > 0 {
		check = float64(cb.total) / float64(tp.observed) / float64(time.Microsecond)
	}
	m.add("netserver.check_us", "us", check)
	m.add("netserver.fuse_us", "us", st[spanFuse].meanUs())
	m.add("netserver.pending_max", "count", float64(tp.pendingMax))
	ss := tp.stats
	m.add("false_alarm_rate", "share", ratio(p.falseAlarms+tp.falseAlarms, p.genuine+tp.genuine))
	m.add("miss_rate", "share", ratio(p.misses+tp.misses, p.replays+tp.replays))
	m.add("netserver.dup_share", "share", ratio(ss.DuplicatesSuppressed, ss.Observations))
	m.add("netserver.outliers_per_frame", "count", ratio(tp.outliers, tp.frames))
	m.add("netserver.quarantined_copies_per_frame", "count", ratio(tp.excluded, tp.frames))
	m.add("netserver.window_merged", "count", float64(ss.WindowMerged))
	m.add("netserver.late", "count", float64(ss.LateObservations))
	m.add("netserver.revised", "count", float64(ss.VerdictsRevised))
	m.add("netserver.shed", "count", float64(ss.WindowShed))
	m.add("netserver.events_dropped", "count", float64(ss.WindowEventsDropped))
	m.add("netserver.quarantined", "count", float64(ss.GatewaysQuarantined))
	m.add("netserver.flush_cycles", "count", float64(info.flush.Cycles))
	m.add("netserver.shards_flushed", "count", float64(info.flush.ShardsFlushed))
	m.add("netserver.flush_errors", "count", float64(info.flush.Errors))
	saveMs, loadMs, perDevice, err := snapshotCost(sys.server(), filepath.Join(workDir, "full-save"), sys.spotIDs())
	if err != nil {
		return err
	}
	m.add("netserver.save_ms", "ms", saveMs)
	m.add("netserver.load_ms", "ms", loadMs)
	m.add("netserver.snapshot_bytes_per_device", "bytes", perDevice)

	m.add("runtime.allocs_per_frame", "count", float64(p.mallocs)/float64(p.frames))
	m.add("runtime.bytes_per_frame", "bytes", float64(p.bytes)/float64(p.frames))
	m.add("runtime.gc_cycles", "count", float64(p.gcCycles))
	m.add("runtime.gc_pause_ms", "ms", float64(p.gcPause)/float64(time.Millisecond))

	traced := float64(tp.frames) / (tp.wall - shadow).Seconds()
	m.add("trace.overhead_share", "share", 1-traced/p.framesPerSecond())
	m.add("trace.parity_captures", "count", float64(info.replayed))
	m.add("trace.spans", "count", float64(len(tr.spans)))
	return nil
}

// snapshotCost times a clean full save of the live database into dir and
// its recovery into a fresh server, spot-checks the recovery, and sizes the
// snapshot per device.
func snapshotCost(live *netserver.NetworkServer, dir string, ids []string) (saveMs, loadMs, bytesPerDevice float64, err error) {
	start := time.Now()
	if err := live.SaveDir(nil, dir); err != nil {
		return 0, 0, 0, fmt.Errorf("full save: %w", err)
	}
	saveMs = msSince(start)
	fresh := netserver.New(netserver.Config{})
	start = time.Now()
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		return 0, 0, 0, fmt.Errorf("loading the full save: %w", err)
	}
	loadMs = msSince(start)
	if err := spotCheck(live, fresh, ids); err != nil {
		return 0, 0, 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return saveMs, loadMs, float64(total) / float64(live.Devices()), nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
