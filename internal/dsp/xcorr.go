package dsp

import (
	"fmt"
	"sync"
)

// PrefixEnergy writes the running energy of x into dst: dst[i] holds
// sum_{j<i} |x[j]|^2, so dst has len(x)+1 entries and the energy of any
// window x[a:b] is dst[b]-dst[a]. dst is grown as needed and returned.
func PrefixEnergy(dst []float64, x []complex128) []float64 {
	n := len(x) + 1
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	var acc float64
	dst[0] = 0
	for i, v := range x {
		re, im := real(v), imag(v)
		acc += re*re + im*im
		dst[i+1] = acc
	}
	return dst
}

// SlidingEnergy writes into dst the energy of every length-m window of x:
// dst[k] = sum_{j<m} |x[k+j]|^2 for k = 0 .. len(x)-m. It uses a prefix sum,
// so the whole sweep costs O(len(x)) instead of O(len(x)·m). Windows whose
// energy rounds slightly negative are clamped to 0. dst is grown as needed
// and returned; it returns nil when m is 0 or longer than x.
func SlidingEnergy(dst []float64, x []complex128, m int) []float64 {
	if m <= 0 || m > len(x) {
		return nil
	}
	out := len(x) - m + 1
	if cap(dst) < out {
		dst = make([]float64, out)
	}
	dst = dst[:out]
	var acc float64
	for i := 0; i < m; i++ {
		re, im := real(x[i]), imag(x[i])
		acc += re*re + im*im
	}
	for k := 0; ; k++ {
		e := acc
		if e < 0 {
			e = 0
		}
		dst[k] = e
		if k+m >= len(x) {
			break
		}
		old, nw := x[k], x[k+m]
		acc += real(nw)*real(nw) + imag(nw)*imag(nw) - (real(old)*real(old) + imag(old)*imag(old))
	}
	return dst
}

// XCorrPlan computes sliding cross-correlations of long inputs against one
// or more fixed equal-length references by FFT overlap-save: the input is
// processed in power-of-two blocks whose forward transform is shared across
// all references, multiplied by each reference's precomputed conjugate
// spectrum, and inverse-transformed to yield block-1+1 valid lags per block.
//
// Output semantics match CrossCorrelate: for reference r,
// c[k] = sum_n x[k+n] * conj(ref_r[n]), k = 0 .. len(x)-m.
//
// The plan is safe for concurrent use: the reference spectra are read-only
// after construction and per-call scratch comes from an internal pool.
type XCorrPlan struct {
	m     int // reference length
	block int // FFT size
	hop   int // valid lags produced per block = block - m + 1
	fft   *FFTPlan
	refF  [][]complex128 // conj(FFT(ref_r zero-padded to block))
	pool  sync.Pool      // *xcorrScratch
}

type xcorrScratch struct {
	x []complex128 // forward-transformed input block
	y []complex128 // per-reference product / inverse transform
}

// NewXCorrPlan builds a plan for the given references, which must all have
// the same nonzero length. The FFT block size is chosen so each block
// yields at least three reference-lengths of valid lags.
func NewXCorrPlan(refs ...[]complex128) *XCorrPlan {
	if len(refs) == 0 {
		panic("dsp: NewXCorrPlan needs at least one reference")
	}
	m := len(refs[0])
	if m == 0 {
		panic("dsp: NewXCorrPlan reference must be nonzero length")
	}
	for _, r := range refs {
		if len(r) != m {
			panic(fmt.Sprintf("dsp: NewXCorrPlan references differ in length (%d vs %d)", len(r), m))
		}
	}
	block := NextPowerOfTwo(4 * m)
	if block < 64 {
		block = 64
	}
	p := &XCorrPlan{
		m:     m,
		block: block,
		hop:   block - m + 1,
		fft:   NewFFTPlan(block),
	}
	p.refF = make([][]complex128, len(refs))
	invN := 1 / float64(block)
	for r, ref := range refs {
		spec := make([]complex128, block)
		copy(spec, ref)
		p.fft.Forward(spec)
		// Conjugate for correlation, with the inverse transform's 1/N
		// folded in so the per-block inverse skips its scaling pass.
		for i, v := range spec {
			spec[i] = complex(real(v)*invN, -imag(v)*invN)
		}
		p.refF[r] = spec
	}
	p.pool.New = func() any {
		return &xcorrScratch{
			x: make([]complex128, block),
			y: make([]complex128, block),
		}
	}
	return p
}

// RefLen returns the reference length m.
func (p *XCorrPlan) RefLen() int { return p.m }

// NumRefs returns how many references the plan correlates against.
func (p *XCorrPlan) NumRefs() int { return len(p.refF) }

// Lags returns the number of output lags for an input of n samples.
func (p *XCorrPlan) Lags(n int) int {
	if n < p.m {
		return 0
	}
	return n - p.m + 1
}

// LagSpan is the half-open lag range [Lo, Hi) of a correlation a caller
// needs; an empty span (Hi <= Lo) needs nothing.
type LagSpan struct{ Lo, Hi int }

// Correlate computes the sliding correlation of x against reference r,
// writing Lags(len(x)) values into dst (grown as needed) and returning it.
// It returns nil when x is shorter than the reference.
func (p *XCorrPlan) Correlate(dst []complex128, x []complex128, r int) []complex128 {
	spans := make([]LagSpan, r+1)
	spans[r] = LagSpan{0, p.Lags(len(x))}
	dsts := make([][]complex128, r+1)
	dsts[r] = dst
	res := p.CorrelateAll(dsts, x, spans)
	if res == nil {
		return nil
	}
	return res[r]
}

// CorrelateAll computes the sliding correlation of x against the first
// len(spans) references, sharing one forward FFT per input block across
// them, and only over the lags each one needs: for reference r it writes
// the lags in spans[r] (clipped to [0, Lags(len(x)))) into dst[r] at
// their own indices, leaving the rest of dst[r] as it was. dst is grown
// to len(spans) entries and each dst[r] with a non-empty span to
// Lags(len(x)) samples. A block that holds none of a reference's span
// skips that reference's inverse transform, and a block no span reaches
// skips its forward transform too. The block grid starts at lag 0
// whatever the spans are, so every lag written has the same bits as in a
// sweep of all lags. It returns nil when x is shorter than the
// reference.
func (p *XCorrPlan) CorrelateAll(dst [][]complex128, x []complex128, spans []LagSpan) [][]complex128 {
	nOut := p.Lags(len(x))
	if nOut == 0 {
		return nil
	}
	if len(spans) > len(p.refF) {
		panic(fmt.Sprintf("dsp: CorrelateAll with %d spans for %d references", len(spans), len(p.refF)))
	}
	for len(dst) < len(spans) {
		dst = append(dst, nil)
	}
	dst = dst[:len(spans)]
	for r, sp := range spans {
		if sp.Hi <= sp.Lo {
			continue
		}
		if cap(dst[r]) < nOut {
			dst[r] = make([]complex128, nOut)
		}
		dst[r] = dst[r][:nOut]
	}

	sc := p.pool.Get().(*xcorrScratch)
	defer p.pool.Put(sc)

	for base := 0; base < nOut; base += p.hop {
		end := min(base+p.hop, nOut)
		loaded := false
		for r, sp := range spans {
			lo, hi := max(sp.Lo, base), min(sp.Hi, end)
			if lo >= hi {
				continue
			}
			if !loaded {
				// Load one block of input, zero-padding past the end of x.
				avail := min(len(x)-base, p.block)
				copy(sc.x, x[base:base+avail])
				clear(sc.x[avail:])
				p.fft.Forward(sc.x)
				loaded = true
			}
			spec := p.refF[r]
			for i := range sc.y {
				sc.y[i] = sc.x[i] * spec[i]
			}
			p.fft.InverseRaw(sc.y)
			copy(dst[r][lo:hi], sc.y[lo-base:hi-base])
		}
	}
	return dst
}

// XCorrFFT is the one-shot convenience form of XCorrPlan: it computes
// CrossCorrelate(x, ref) via FFT overlap-save. Callers with a fixed
// reference and many inputs should build a plan instead.
func XCorrFFT(x, ref []complex128) []complex128 {
	if len(ref) == 0 || len(ref) > len(x) {
		return nil
	}
	return NewXCorrPlan(ref).Correlate(nil, x, 0)
}
