package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{n: 99, q: 0.9, ok: false}, // rank 90, 9 beyond
		{n: 100, q: 0.9, want: 90, ok: true},
		{n: 114, q: 0.9, want: 103, ok: true},
		{n: 999, q: 0.99, ok: false}, // rank 990, 9 beyond
		{n: 1000, q: 0.99, want: 990, ok: true},
		{n: 5, q: 0.5, ok: false},
		{n: 0, q: 0.9, ok: false},
	} {
		got, ok := tail(seq(c.n), c.q)
		if ok != c.ok || ok && got != c.want {
			t.Errorf("tail(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if tailSamples != 100 {
		t.Errorf("tailSamples = %d, but p90 first has ten samples beyond it at 100", tailSamples)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestTallyCountsBusyAsFailedAndSimLossAsCompleted(t *testing.T) {
	var tl tally
	tl.record(time.Millisecond, nil)
	tl.record(2*time.Millisecond, &wire.Error{Code: wire.CodeExchangeFailed, Msg: "testbed: IMD did not respond"})
	tl.record(3*time.Millisecond, fmt.Errorf("request 7: %w", shieldd.ErrServerBusy))
	tl.record(4*time.Millisecond, &wire.Error{Code: wire.CodeBadRequest, Msg: "IMD index 9 out of range"})
	if tl.attempted != 4 || tl.failed != 2 || tl.simLoss != 1 || tl.completed() != 2 {
		t.Fatalf("attempted %d failed %d simLoss %d completed %d; want 4 2 1 2", tl.attempted, tl.failed, tl.simLoss, tl.completed())
	}
	if got := tl.failedRatio(); got != 0.5 {
		t.Errorf("failedRatio = %v, want 0.5", got)
	}
	if len(tl.latMS) != 2 || tl.latMS[0] != 1 || tl.latMS[1] != 2 {
		t.Errorf("latencies %v: want the ok and the simulated-loss exchange only", tl.latMS)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60}, // overlaps a by 10
		{name: "leaf", parent: 1, start: 15, end: 20},
	}}
	self := tr.selfTimes()
	for name, want := range map[string]float64{"root": 50, "a": 25, "b": 30, "leaf": 5} {
		if got := self[name][0] * 1000; math.Abs(got-want) > 1e-9 {
			t.Errorf("self time of %s = %vns, want %vns", name, got, want)
		}
	}
}

// A synthetic `pprof -top -unit=ms` listing: each leaf package's self
// time lands in its bucket, inlined and generic frames included.
const syntheticTop = `File: heartbench
Type: cpu
Duration: 2s, Total samples = 1000ms (50.00%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     300ms 30.00% 30.00%      300ms 30.00%  heartshield/internal/stats.(*Source).NormFloat64 (inline)
     200ms 20.00% 50.00%      250ms 25.00%  heartshield/internal/dsp.(*Plan).stageR4Inv
     100ms 10.00% 60.00%      100ms 10.00%  heartshield/internal/wire/dgram.Encode
      80ms  8.00% 68.00%       80ms  8.00%  internal/runtime/syscall.Syscall6
      70ms  7.00% 75.00%       70ms  7.00%  runtime.mallocgc
      50ms  5.00% 80.00%       50ms  5.00%  sync/atomic.(*Pointer[go.shape.struct { heartshield/internal/shieldd.x int }]).Load
      50ms  5.00% 85.00%       50ms  5.00%  heartshield/internal/imd.(*Device).ProcessWindow
      50ms  5.00% 90.00%       50ms  5.00%  heartshield/internal/shieldd.(*Server).serveV2.func3
      50ms  5.00% 95.00%       50ms  5.00%  syscall.Syscall
      50ms  5.00%   100%       50ms  5.00%  internal/runtime/atomic.(*Uint32).Load
         0     0%   100%     1000ms   100%  main.main
`

func TestLeafPackageAttribution(t *testing.T) {
	rows, err := parseTop(syntheticTop)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("parsed %d rows, want 11", len(rows))
	}
	got := cpuShares(rows)
	want := map[string]float64{
		"stats": 30, "dsp": 20, "wire": 10, "syscall": 13, "runtime": 12,
		"shieldd": 5, "other": 10,
		"channel": 0, "modem": 0, "radio": 0, "shieldcore": 0, "securelink": 0,
	}
	for b, w := range want {
		if math.Abs(got[b]-w) > 1e-9 {
			t.Errorf("cpu.%s_pct = %v, want %v", b, got[b], w)
		}
	}
	if len(got) != len(cpuBuckets) {
		t.Errorf("%d buckets, want %d", len(got), len(cpuBuckets))
	}
	if _, err := parseTop("no table here"); err == nil {
		t.Error("parseTop accepted output without a -top table")
	}
}

func TestTallyReservoirStaysBoundedAndUniform(t *testing.T) {
	var tl tally
	const n = 4 * reservoirSize
	for i := 0; i < n; i++ {
		tl.record(time.Duration(i)*time.Millisecond, nil)
	}
	if len(tl.latMS) != reservoirSize || tl.completed() != n {
		t.Fatalf("kept %d samples of %d ops; want %d of %d", len(tl.latMS), tl.completed(), reservoirSize, n)
	}
	// The ops' latencies are 0..n-1 ms; a uniform sample's median sits
	// near n/2 and its p90 near 0.9n.
	if got := median(tl.latMS); math.Abs(got-n/2) > 0.02*n {
		t.Errorf("sample median %v, want about %v", got, n/2)
	}
	if got, _ := tail(tl.latMS, 0.9); math.Abs(got-0.9*n) > 0.02*n {
		t.Errorf("sample p90 %v, want about %v", got, 0.9*n)
	}
}
