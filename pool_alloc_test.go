package softlora

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestUplinkBatchPooledSteadyStateBytes is the end-to-end allocation
// regression for the pooled capture path: once the buffer pool is warm, a
// full simulated batch round — Channel.Receive renders, Downconvert, the
// gateway batch pipeline, and the Release calls threading the buffers back
// — must not reallocate the multi-hundred-KB capture buffers. Before
// pooling, a 4-uplink round allocated ~1.9 MB of captures alone; with the
// per-uplink rand sources replaced by reseeded pipeline generators and the
// reports/timestamps slab-allocated per batch, a round now costs ~4.5 KB
// (result slices, record flushing, goroutine scheduling). The budget
// leaves ~3× headroom over that. The premise is a warm pool, so the GC is
// held off from the warm-up on: a collection there empties the
// sync.Pools behind bufpool and the pipeline pool, and the refill — not
// the steady state — would be what the budget measures.
func TestUplinkBatchPooledSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the byte budget only holds in normal builds")
	}
	const batch = 4
	rng := rand.New(rand.NewSource(42))
	gw, err := NewGateway(Config{Rand: rng, FB: FBDechirpFFT, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulation{Gateway: gw, NoiseFloordBm: -100, Rand: rng}
	devs := make([]*SimDevice, batch)
	for i := range devs {
		devs[i] = NewSimDevice(fmt.Sprintf("dev-%d", i), -23, 40, 14, 80, 100)
		gw.EnrollDevice(devs[i].ID, devs[i].Transmitter.BiasHz(gw.Params()))
	}
	now := 10.0
	round := func() {
		ups := make([]SimUplink, batch)
		for i, d := range devs {
			d.Record(now-1, nil)
			ups[i] = SimUplink{Device: d, Time: now}
			now += 2
		}
		results, err := sim.UplinkBatch(context.Background(), ups)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("uplink %d: %v", i, r.Err)
			}
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm-up: sizes the pool, every worker pipeline's scratch and plans.
	round()
	round()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 3
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perRound > 16<<10 {
		t.Errorf("steady-state batch round allocated %d bytes, want <= 16 KB", perRound)
	}
}
