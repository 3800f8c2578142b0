package channel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// sameArray reports whether a and b share a backing array start.
func sameArray(a, b []complex128) bool { return &a[:1][0] == &b[:1][0] }

// A lent buffer belongs to the bursts of the current trial: a second
// Buffer call before ClearBursts must never hand it out again, however
// the sizes line up, and after ClearBursts it is reused.
func TestBufferReusedOnlyAfterClearBursts(t *testing.T) {
	m := newTestMedium(30)
	a := m.Buffer(1000)
	b := m.Buffer(1000)
	c := m.Buffer(10)
	if len(a) != 1000 || len(c) != 10 {
		t.Fatalf("Buffer lengths %d, %d; want 1000, 10", len(a), len(c))
	}
	if sameArray(a, b) || sameArray(a, c) || sameArray(b, c) {
		t.Fatal("Buffer lent one array twice within a trial")
	}
	m.AddBurst(&Burst{Channel: 0, Start: 0, IQ: a, From: antA})

	m.ClearBursts()
	// Smallest fit first: 10 samples come from c, 1000 from a or b.
	if got := m.Buffer(5); !sameArray(got, c) {
		t.Error("Buffer(5) after ClearBursts did not reuse the smallest free buffer")
	}
	x, y := m.Buffer(1000), m.Buffer(900)
	if !(sameArray(x, a) || sameArray(x, b)) || !(sameArray(y, a) || sameArray(y, b)) || sameArray(x, y) {
		t.Error("1000- and 900-sample requests after ClearBursts did not reuse the two 1000-sample buffers")
	}
	if z := m.Buffer(1); sameArray(z, a) || sameArray(z, b) || sameArray(z, c) {
		t.Error("Buffer handed out a buffer that is still lent")
	}
}

// IQ the caller allocated is dropped by ClearBursts, never recycled into
// a later burst.
func TestCallerIQNeverRecycled(t *testing.T) {
	m := newTestMedium(31)
	own := make([]complex128, 512)
	m.AddBurst(&Burst{Channel: 0, Start: 0, IQ: own, From: antA})
	m.ClearBursts()
	for _, n := range []int{1, 256, 512} {
		if got := m.Buffer(n); sameArray(got, own) {
			t.Fatalf("Buffer(%d) recycled caller-owned IQ", n)
		}
	}
}

// When no free buffer fits, the largest free one is dropped rather than
// kept: the pool never outgrows the most buffers one trial held at once.
func TestBufferPoolBounded(t *testing.T) {
	m := newTestMedium(32)
	for trial, n := 0, 100; trial < 50; trial, n = trial+1, n+100 {
		m.Buffer(n)
		m.Buffer(n / 2)
		m.ClearBursts()
		if got := len(m.free); got > 2 {
			t.Fatalf("trial %d: %d free buffers after a 2-buffer trial", trial, got)
		}
	}
}

// lendAndWatch lends an n-sample buffer from m, places it as a burst,
// and returns a flag its finalizer sets once the buffer is unreachable;
// it keeps no strong reference of its own.
func lendAndWatch(m *Medium, n int) *atomic.Bool {
	b := m.Buffer(n)
	m.AddBurst(&Burst{Channel: 0, Start: 0, IQ: b, From: antA})
	var freed atomic.Bool
	runtime.SetFinalizer(&b[0], func(*complex128) { freed.Store(true) })
	return &freed
}

// collected runs GC cycles until every flag is set or a second passes
// (finalizers run on their own goroutine after the cycle that finds the
// object unreachable).
func collected(flags ...*atomic.Bool) bool {
	deadline := time.Now().Add(time.Second)
	for {
		runtime.GC()
		all := true
		for _, f := range flags {
			all = all && f.Load()
		}
		if all || time.Now().After(deadline) {
			return all
		}
		time.Sleep(time.Millisecond)
	}
}

// ReleaseBuffers must really let go: after it the buffers, free or lent,
// are collected, where after a plain ClearBursts the medium still holds
// them for reuse.
func TestReleaseBuffersDropsBuffers(t *testing.T) {
	m := newTestMedium(33)
	a, b := lendAndWatch(m, 4096), lendAndWatch(m, 4096)
	m.ClearBursts()
	runtime.GC()
	runtime.GC()
	if a.Load() || b.Load() {
		t.Fatal("ClearBursts let go of a buffer it should keep for reuse")
	}

	m.Buffer(1024) // one buffer lent again, one still free
	m.ReleaseBuffers()
	if !collected(a, b) {
		t.Fatal("buffers still reachable after ReleaseBuffers")
	}
	if len(m.free) != 0 || len(m.lent) != 0 || len(m.Bursts(0)) != 0 {
		t.Fatalf("ReleaseBuffers left %d free, %d lent, %d bursts", len(m.free), len(m.lent), len(m.Bursts(0)))
	}
	if buf := m.Buffer(16); len(buf) != 16 {
		t.Fatalf("Buffer after ReleaseBuffers has %d samples, want 16", len(buf))
	}
}
