package testbed

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// exchangeAllocBudget bounds what one warm protected exchange may
// allocate. The sample buffers of every burst come from the medium and
// every observation from per-device scratch, so what is left is frames,
// bit vectors and the burst and placement records — a few KiB. A single
// per-burst sample slice cannot fit under it: the Virtuoso's response
// window jam is 13140 samples, 205 KiB.
const exchangeAllocBudget = 64 << 10

// TestProtectedExchangeAllocBudget holds the protected-exchange path to
// its allocation budget, measured as the MemStats.TotalAlloc delta over
// 20 warm exchanges mixing Interrogate and SetTherapy.
func TestProtectedExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the budget holds only without -race")
	}
	sc := NewScenario(Options{Seed: 41})
	sc.CalibrateShieldRSSI()
	eaves := sc.NewEavesdropper()
	run := func(n int) {
		for i := 0; i < n; i++ {
			cmd := sc.InterrogateFrame()
			if i%2 == 1 {
				cmd = sc.SetTherapyFrame(90)
			}
			sc.RunProtectedExchange(eaves, 0, cmd)
		}
	}
	run(6) // grow scratch buffers, fill the medium's pool and the frame cache

	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(n)
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > exchangeAllocBudget {
		t.Fatalf("warm protected exchange allocates %d B, budget %d B", per, exchangeAllocBudget)
	} else {
		t.Logf("warm protected exchange allocates %d B (budget %d B)", per, exchangeAllocBudget)
	}
}

// lendWatched borrows an n-sample buffer from the scenario's medium and
// returns a flag its finalizer sets once the buffer is garbage; it keeps
// no reference of its own.
func lendWatched(sc *Scenario, n int) *atomic.Bool {
	var freed atomic.Bool
	buf := sc.Medium.Buffer(n)
	runtime.SetFinalizer(&buf[0], func(*complex128) { freed.Store(true) })
	return &freed
}

// A session that has calibrated may sit idle indefinitely before its
// first exchange, so CalibrateIMD must leave its medium holding no sample
// buffers: a buffer the medium had lent before calibration has to become
// garbage, whether calibration reused it or not.
func TestCalibrateIMDReleasesBuffers(t *testing.T) {
	sc := NewScenario(Options{Seed: 42})
	freed := lendWatched(sc, 1<<15)
	sc.CalibrateShieldRSSI()
	for deadline := time.Now().Add(time.Second); !freed.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("medium still holds a sample buffer after CalibrateIMD")
		}
		runtime.GC()
	}
	runtime.KeepAlive(sc) // the medium must be alive for the check to mean anything
}
