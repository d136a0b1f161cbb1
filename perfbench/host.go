package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// host fingerprints the machine and build a result was measured on. Two
// results are comparable only when their hosts match (Same); the revision
// is provenance, since an A/B comparison spans two revisions.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Rev        string `json:"rev"`
	Dirty      bool   `json:"dirty"`
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s dirty=%v",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Rev, h.Dirty)
}

// Same reports whether two results were measured on the same host setup.
func (h host) Same(o host) bool {
	return h.CPU == o.CPU && h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

func fingerprint() host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Rev:        "unknown",
	}
	// Only a working directory that is itself a git checkout is asked;
	// an exported tree has no revision.
	if _, err := os.Stat(".git"); err == nil {
		if rev, err := git("rev-parse", "HEAD"); err == nil {
			h.Rev = rev
			if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
				h.Dirty = st != ""
			}
		}
	}
	return h
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return strings.TrimSpace(string(out)), err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// stealTime is the machine's steal time so far (/proc/stat): how long its
// virtual CPUs were ready to run while the hypervisor ran something else.
// It is zero where the kernel does not report it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from its
// current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// compareMain prints B against A metric by metric, and refuses results
// measured on different hosts or for different workloads.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var rs [2]result
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := rs[0], rs[1]
	if !a.Host.Same(b.Host) {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: host fingerprints differ\n  A: %s\n  B: %s\n", a.Host, b.Host)
		return 1
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: A is %s trace=%v, B is %s trace=%v\n", a.Workload, a.Trace, b.Workload, b.Trace)
		return 1
	}
	fmt.Printf("# %s  A: rev %s seed %d  B: rev %s seed %d\n", a.Workload, a.Host.Rev, a.Seed, b.Host.Rev, b.Seed)
	am := map[string]metric{}
	for _, m := range a.Metrics {
		am[m.Name] = m
	}
	for _, mb := range b.Metrics {
		ma, ok := am[mb.Name]
		if !ok {
			continue
		}
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Printf("%-36s %14.6g %14.6g %8s %s\n", mb.Name, ma.Value, mb.Value, change, mb.Unit)
	}
	return 0
}
