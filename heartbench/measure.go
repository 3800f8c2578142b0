package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"heartshield/internal/wire"
)

// minBeyond is the sample count a reported tail percentile must have
// above it; a percentile resting on fewer is left unreported.
const minBeyond = 10

// tailSamples is the smallest sample count that still reports p90.
const tailSamples = 100

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs need not be sorted; it is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of xs (0 < q < 1) and whether
// it may be reported: at least minBeyond samples must lie above it.
func tail(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sortedCopy(xs)[rank-1], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// outcome classifies one attempted operation.
type outcome int

const (
	opOK outcome = iota
	// opSimLoss is a protected exchange the simulated channel lost (the
	// IMD missed the command, or the shield could not decode the reply).
	// The serving path did its job, so it is not a failure.
	opSimLoss
	// opFailed is an operation that errored or was refused, BUSY included.
	opFailed
)

func classify(err error) outcome {
	if err == nil {
		return opOK
	}
	var we *wire.Error
	if errors.As(err, &we) && we.Code == wire.CodeExchangeFailed {
		return opSimLoss
	}
	return opFailed
}

// reservoirSize bounds the latency samples a tally keeps. Past it the
// tally keeps a uniform random sample of every latency offered
// (Algorithm R), so the harness's own memory stays flat however many ops
// a run makes and heap_peak_mb measures the program, not the harness.
const reservoirSize = 1 << 15

// tally counts attempted operations and their outcomes, and samples the
// latency of every operation that completed (simulated losses included).
// It is safe for concurrent use.
type tally struct {
	mu                         sync.Mutex
	attempted, failed, simLoss int64
	timed                      int64 // latencies offered to the sample
	latMS                      []float64
	rng                        *rand.Rand
}

func (t *tally) record(d time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch classify(err) {
	case opFailed:
		t.failed++
		return
	case opSimLoss:
		t.simLoss++
	}
	t.timed++
	ms := float64(d) / float64(time.Millisecond)
	if len(t.latMS) < reservoirSize {
		t.latMS = append(t.latMS, ms)
		return
	}
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(1))
	}
	if j := t.rng.Int63n(t.timed); j < reservoirSize {
		t.latMS[j] = ms
	}
}

// completed is the number of operations that did not fail.
func (t *tally) completed() int64 { return t.attempted - t.failed }

// failedRatio is failed over attempted operations.
func (t *tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}

// perOp times fn in batches of n calls and returns the median per-call
// time over the batches, in nanoseconds.
func perOp(batches, n int, fn func(i int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(b*n + i)
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}
