package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsErrC(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if e := math.Hypot(real(d), imag(d)); e > m {
			m = e
		}
	}
	return m
}

// TestFFTPlanMatchesFFT checks the cached-plan transform against the
// one-shot FFT/IFFT across sizes.
func TestFFTPlanMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		p := NewFFTPlan(n)
		x := randComplex(rng, n)
		want := Clone(x)
		FFT(want)
		got := Clone(x)
		p.Forward(got)
		if e := maxAbsErrC(got, want); e > 1e-9 {
			t.Fatalf("n=%d: plan forward differs from FFT by %g", n, e)
		}
		p.Inverse(got)
		if e := maxAbsErrC(got, x); e > 1e-9 {
			t.Fatalf("n=%d: plan round-trip error %g", n, e)
		}
	}
}

// TestXCorrFFTMatchesNaive is the property test required of the
// FFT-accelerated correlation: on random inputs it must agree with the
// brute-force CrossCorrelate to within 1e-9 absolute.
func TestXCorrFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ n, m int }{
		{1, 1}, {5, 5}, {16, 3}, {100, 48}, {1000, 48},
		{4096, 576}, {777, 129}, {12000, 576},
	}
	for _, c := range cases {
		x := randComplex(rng, c.n)
		ref := randComplex(rng, c.m)
		want := CrossCorrelate(x, ref)
		got := XCorrFFT(x, ref)
		if len(got) != len(want) {
			t.Fatalf("n=%d m=%d: got %d lags, want %d", c.n, c.m, len(got), len(want))
		}
		if e := maxAbsErrC(got, want); e > 1e-9 {
			t.Fatalf("n=%d m=%d: FFT correlation differs from naive by %g", c.n, c.m, e)
		}
	}
}

// TestXCorrPlanMultiRef checks the shared-forward-FFT multi-reference path
// and scratch reuse across calls.
func TestXCorrPlanMultiRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m = 48
	refs := [][]complex128{randComplex(rng, m), randComplex(rng, m), randComplex(rng, m)}
	p := NewXCorrPlan(refs...)
	var dst [][]complex128
	for trial := 0; trial < 3; trial++ {
		x := randComplex(rng, 2000+137*trial)
		dst = p.CorrelateAll(dst, x, fullSpans(len(refs), p.Lags(len(x))))
		for r, ref := range refs {
			want := CrossCorrelate(x, ref)
			if e := maxAbsErrC(dst[r], want); e > 1e-9 {
				t.Fatalf("trial %d ref %d: error %g", trial, r, e)
			}
		}
	}
}

// fullSpans asks every one of nRef references for all nOut lags.
func fullSpans(nRef, nOut int) []LagSpan {
	spans := make([]LagSpan, nRef)
	for r := range spans {
		spans[r] = LagSpan{0, nOut}
	}
	return spans
}

// fullSweep is the span-free overlap-save sweep XCorrPlan.CorrelateAll
// ran before it learned spans: every block, every reference, every lag.
// It is kept here as the bitwise reference for the pruned sweep.
func fullSweep(p *XCorrPlan, x []complex128) [][]complex128 {
	nOut := p.Lags(len(x))
	out := make([][]complex128, len(p.refF))
	for r := range out {
		out[r] = make([]complex128, nOut)
	}
	xb := make([]complex128, p.block)
	y := make([]complex128, p.block)
	for base := 0; base < nOut; base += p.hop {
		avail := len(x) - base
		if avail > p.block {
			avail = p.block
		}
		copy(xb, x[base:base+avail])
		for i := avail; i < p.block; i++ {
			xb[i] = 0
		}
		p.fft.Forward(xb)
		nv := nOut - base
		if nv > p.hop {
			nv = p.hop
		}
		for r, spec := range p.refF {
			for i := range y {
				y[i] = xb[i] * spec[i]
			}
			p.fft.InverseRaw(y)
			copy(out[r][base:base+nv], y[:nv])
		}
	}
	return out
}

// TestXCorrPlanSpansMatchFullSweep is the bitwise wall of span pruning:
// at the sync correlator's shape (four 48-sample references read at the
// segment offsets of the [0×8,1,2,2,3] map, 256-point blocks, hop 209),
// every lag inside a reference's span must carry exactly the bits of the
// full sweep, and every lag outside it must be left untouched. Inputs
// run from one block to nine, with both full 1024-lag chunks and short
// last chunks, plus arbitrary, clipped and empty spans.
func TestXCorrPlanSpansMatchFullSweep(t *testing.T) {
	const m = 48
	rng := rand.New(rand.NewSource(17))
	refs := make([][]complex128, 4)
	for r := range refs {
		refs[r] = randComplex(rng, m)
	}
	p := NewXCorrPlan(refs...)
	if p.block != 256 || p.hop != 209 {
		t.Fatalf("plan block/hop = %d/%d, want 256/209", p.block, p.hop)
	}
	segRef := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 3}
	offs := make([]LagSpan, len(refs))
	for s := len(segRef) - 1; s >= 0; s-- {
		offs[segRef[s]].Lo = s * m
	}
	for s, r := range segRef {
		offs[r].Hi = s * m
	}
	span := len(segRef) * m

	check := func(name string, x []complex128, spans []LagSpan) {
		t.Helper()
		want := fullSweep(p, x)
		nOut := p.Lags(len(x))
		sentinel := complex(math.Inf(1), math.NaN())
		dst := make([][]complex128, len(spans))
		for r := range dst {
			dst[r] = make([]complex128, nOut)
			for i := range dst[r] {
				dst[r][i] = sentinel
			}
		}
		got := p.CorrelateAll(dst, x, spans)
		for r, sp := range spans {
			for k := 0; k < nOut; k++ {
				g := got[r][k]
				if k >= sp.Lo && k < sp.Hi {
					if !sameBitsC(g, want[r][k]) {
						t.Fatalf("%s: ref %d lag %d = %v, full sweep %v", name, r, k, g, want[r][k])
					}
				} else if !sameBitsC(g, sentinel) {
					t.Fatalf("%s: ref %d lag %d outside span %v was written", name, r, k, sp)
				}
			}
		}
	}

	for blocks := 1; blocks <= 9; blocks++ {
		for _, trim := range []int{0, 1, 100, 208} {
			nOut := blocks*p.hop - trim
			if nOut <= span-m {
				continue
			}
			// A sync chunk of L lags correlates L-1+span samples, i.e.
			// L+span-m lags.
			lags := nOut - (span - m)
			x := randComplex(rng, nOut+m-1)
			spans := make([]LagSpan, len(offs))
			for r, o := range offs {
				spans[r] = LagSpan{o.Lo, o.Hi + lags}
			}
			check(fmt.Sprintf("sync %d blocks, %d lags", blocks, lags), x, spans)
		}
		nOut := blocks*p.hop - 7
		x := randComplex(rng, nOut+m-1)
		a, b := rng.Intn(nOut), rng.Intn(nOut)
		check(fmt.Sprintf("arbitrary %d blocks", blocks), x, []LagSpan{
			{min(a, b), max(a, b) + 1}, {0, nOut}, {nOut / 2, nOut + 500}, {5, 5},
		})
	}
}

// sameBitsC reports whether a and b have identical bit patterns.
func sameBitsC(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestXCorrPlanEdgeCases covers too-short inputs and single-lag outputs.
func TestXCorrPlanEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := randComplex(rng, 10)
	p := NewXCorrPlan(ref)
	if got := p.Correlate(nil, randComplex(rng, 9), 0); got != nil {
		t.Fatalf("short input should return nil, got %d lags", len(got))
	}
	if XCorrFFT(randComplex(rng, 4), randComplex(rng, 9)) != nil {
		t.Fatal("XCorrFFT with ref longer than x should return nil")
	}
	x := randComplex(rng, 10)
	got := p.Correlate(nil, x, 0)
	want := CrossCorrelate(x, ref)
	if len(got) != 1 || maxAbsErrC(got, want) > 1e-9 {
		t.Fatalf("single-lag correlation wrong: %v vs %v", got, want)
	}
}

// TestSlidingEnergyMatchesNaive checks the prefix-sum window energies.
func TestSlidingEnergyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct{ n, m int }{{1, 1}, {10, 3}, {1000, 48}, {12000, 576}} {
		x := randComplex(rng, c.n)
		got := SlidingEnergy(nil, x, c.m)
		if len(got) != c.n-c.m+1 {
			t.Fatalf("n=%d m=%d: %d windows, want %d", c.n, c.m, len(got), c.n-c.m+1)
		}
		for k := range got {
			want := Energy(x[k : k+c.m])
			if math.Abs(got[k]-want) > 1e-9 {
				t.Fatalf("n=%d m=%d k=%d: %g vs %g", c.n, c.m, k, got[k], want)
			}
		}
	}
	if SlidingEnergy(nil, randComplex(rng, 4), 5) != nil {
		t.Fatal("window longer than input should return nil")
	}
	if SlidingEnergy(nil, nil, 0) != nil {
		t.Fatal("zero window should return nil")
	}
}

// TestPrefixEnergy checks the running-energy helper.
func TestPrefixEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randComplex(rng, 500)
	pre := PrefixEnergy(nil, x)
	if len(pre) != len(x)+1 {
		t.Fatalf("prefix length %d, want %d", len(pre), len(x)+1)
	}
	for _, w := range [][2]int{{0, 0}, {0, 500}, {13, 61}, {499, 500}} {
		want := Energy(x[w[0]:w[1]])
		if got := pre[w[1]] - pre[w[0]]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("window %v: %g vs %g", w, got, want)
		}
	}
}

// BenchmarkXCorrFFT and BenchmarkXCorrNaive track the tentpole primitive at
// the shield's sync dimensions (12000-sample window, 576-sample reference).
func BenchmarkXCorrFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(rng, 12000)
	ref := randComplex(rng, 576)
	p := NewXCorrPlan(ref)
	var dst []complex128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = p.Correlate(dst, x, 0)
	}
}

func BenchmarkXCorrNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(rng, 12000)
	ref := randComplex(rng, 576)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrossCorrelate(x, ref)
	}
}

func BenchmarkFFTPlan1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(rng, 1024)
	p := NewFFTPlan(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}
