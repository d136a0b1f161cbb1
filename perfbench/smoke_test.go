package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at tiny scale, untraced and traced, twice
// with one seed: every metric BENCHMARK.json names must be emitted, finite
// and in its unit, and the two runs must agree on the warm-up failures and
// the verdict digest.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, the benchmark has no such workload", w.Name)
		}
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			var first *result
			for rep := 0; rep < 2; rep++ {
				rc := runConfig{workload: name, seed: 7, seconds: 0.3, trace: traced, tiny: true, setups: 2, outDir: t.TempDir()}
				res, err := runBench(rc)
				if err != nil {
					t.Fatalf("%s traced=%v: %v", name, traced, err)
				}
				got := map[string]metric{}
				for _, m := range res.Metrics {
					got[m.Name] = m
				}
				for _, cm := range want {
					m, ok := got[cm.Name]
					switch {
					case !ok:
						t.Errorf("%s traced=%v: metric %s missing", name, traced, cm.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s traced=%v: metric %s = %v", name, traced, cm.Name, m.Value)
					case m.Unit != cm.Unit:
						t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", name, traced, cm.Name, m.Unit, cm.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
				}
				if res.Attempted < 1 {
					t.Errorf("%s traced=%v: nothing attempted", name, traced)
				}
				if first == nil {
					first = res
				} else if res.Digest != first.Digest || res.WarmupFailed != first.WarmupFailed {
					t.Errorf("%s traced=%v: same seed gave digest %s and %d warm-up failures, then %s and %d",
						name, traced, first.Digest, first.WarmupFailed, res.Digest, res.WarmupFailed)
				}
			}
		}
	}
}
