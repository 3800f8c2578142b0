package stats

import (
	"math"
	"math/rand"
	"testing"
)

// The bulk Gaussian paths (normFill and the RNG fills built on it) must
// draw exactly math/rand's NormFloat64 stream. Every comparison here is on
// the bit pattern, so even a sign-of-zero or last-ulp difference fails.

// bulkLengths straddle the generator's wrap points (the feed index wraps
// after 334 steps of a fresh source, the tap after 607, and 273 is the
// lag) and the 256-sample chunk edge of the complex fills.
var bulkLengths = []int{0, 1, 2, 127, 255, 256, 257, 272, 273, 274, 333, 334, 335, 511, 512, 513, 606, 607, 608, 1000, 1215, 4097}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameComplexBits(a, b complex128) bool {
	return sameBits(real(a), real(b)) && sameBits(imag(a), imag(b))
}

func TestNormFillMatchesMathRand(t *testing.T) {
	for _, seed := range equalitySeeds {
		// A fresh source per length pins each wrap point from a known
		// starting state.
		for _, n := range bulkLengths {
			ref := rand.New(rand.NewSource(seed))
			got := newRandSource(seed)
			buf := make([]float64, n)
			got.normFill(buf)
			for i, v := range buf {
				if w := ref.NormFloat64(); !sameBits(v, w) {
					t.Fatalf("seed %d len %d draw %d: normFill = %v, want %v", seed, n, i, v, w)
				}
			}
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d len %d: Int63 after normFill = %d, want %d", seed, n, g, w)
			}
		}
	}
}

func TestNormFillInterleavedMatchesMathRand(t *testing.T) {
	// One long-lived source: bulk runs of every length with scalar
	// Float64/Intn/NormFloat64 draws between them, so runs start and end
	// at many different tap/feed offsets and cross wraps mid-run. Long
	// enough that the wedge and tail cases of normSlow land inside runs.
	for _, seed := range equalitySeeds {
		ref := rand.New(rand.NewSource(seed))
		got := newRandSource(seed)
		buf := make([]float64, 4097)
		for round := 0; round < 8; round++ {
			for li, n := range bulkLengths {
				got.normFill(buf[:n])
				for i, v := range buf[:n] {
					if w := ref.NormFloat64(); !sameBits(v, w) {
						t.Fatalf("seed %d round %d len %d draw %d: normFill = %v, want %v", seed, round, n, i, v, w)
					}
				}
				for k := 0; k < li%4; k++ {
					if g, w := got.Float64(), ref.Float64(); !sameBits(g, w) {
						t.Fatalf("seed %d: interleaved Float64 = %v, want %v", seed, g, w)
					}
					if g, w := got.Intn(1000), ref.Intn(1000); g != w {
						t.Fatalf("seed %d: interleaved Intn = %d, want %d", seed, g, w)
					}
				}
				if g, w := got.NormFloat64(), ref.NormFloat64(); !sameBits(g, w) {
					t.Fatalf("seed %d: interleaved NormFloat64 = %v, want %v", seed, g, w)
				}
			}
		}
		if g, w := got.Int63(), ref.Int63(); g != w {
			t.Fatalf("seed %d: final Int63 = %d, want %d", seed, g, w)
		}
	}
}

func TestComplexFillsMatchMathRand(t *testing.T) {
	// The three complex fills against per-sample formulas over math/rand,
	// real part drawn first, across the chunk edges.
	const sigma2 = 1.7
	s := math.Sqrt(sigma2 / 2)
	for _, seed := range []int64{1, 9, 77, -5} {
		ref := rand.New(rand.NewSource(seed))
		g := NewRNG(seed)
		for _, n := range bulkLengths {
			amp := make([]float64, n)
			base := make([]complex128, n)
			for i := range amp {
				amp[i] = 0.25 + float64(i%7)
				base[i] = complex(float64(i), -float64(i)/3)
			}

			add := append([]complex128(nil), base...)
			g.AddComplexNormal(add, sigma2)
			for i, v := range add {
				w := base[i] + complex(s*ref.NormFloat64(), s*ref.NormFloat64())
				if !sameComplexBits(v, w) {
					t.Fatalf("seed %d len %d sample %d: AddComplexNormal = %v, want %v", seed, n, i, v, w)
				}
			}

			fill := make([]complex128, n)
			g.FillComplexNormal(fill, sigma2)
			for i, v := range fill {
				w := complex(s*ref.NormFloat64(), s*ref.NormFloat64())
				if !sameComplexBits(v, w) {
					t.Fatalf("seed %d len %d sample %d: FillComplexNormal = %v, want %v", seed, n, i, v, w)
				}
			}

			g.FillComplexNormalAmp(fill, amp)
			for i, v := range fill {
				w := complex(amp[i]*ref.NormFloat64(), amp[i]*ref.NormFloat64())
				if !sameComplexBits(v, w) {
					t.Fatalf("seed %d len %d sample %d: FillComplexNormalAmp = %v, want %v", seed, n, i, v, w)
				}
			}

			if got, want := g.Float64(), ref.Float64(); !sameBits(got, want) {
				t.Fatalf("seed %d len %d: Float64 after fills = %v, want %v", seed, n, got, want)
			}
		}
		if got, want := g.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: final Int63 = %d, want %d", seed, got, want)
		}
	}
}

func TestComplexFillsDoNotAllocate(t *testing.T) {
	g := NewRNG(3)
	dst := make([]complex128, 12000)
	amp := make([]float64, 256)
	for i := range amp {
		amp[i] = 1
	}
	for name, f := range map[string]func(){
		"AddComplexNormal":     func() { g.AddComplexNormal(dst, 1) },
		"FillComplexNormal":    func() { g.FillComplexNormal(dst, 1) },
		"FillComplexNormalAmp": func() { g.FillComplexNormalAmp(dst[:256], amp) },
	} {
		f()
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

// Microbenchmarks at the sizes the simulator draws: 256 (one jam
// synthesis block), 4096 (the cancellation probe) and 12000 (one IMD
// response window of receiver noise). Each op draws 2n normals.

func benchAddComplexNormal(b *testing.B, n int) {
	g := NewRNG(1)
	dst := make([]complex128, n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddComplexNormal(dst, 1.0)
	}
}

func BenchmarkAddComplexNormal256(b *testing.B)   { benchAddComplexNormal(b, 256) }
func BenchmarkAddComplexNormal12000(b *testing.B) { benchAddComplexNormal(b, 12000) }

func benchFillComplexNormal(b *testing.B, n int) {
	g := NewRNG(1)
	dst := make([]complex128, n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FillComplexNormal(dst, 1.0)
	}
}

func BenchmarkFillComplexNormal256(b *testing.B)   { benchFillComplexNormal(b, 256) }
func BenchmarkFillComplexNormal4096(b *testing.B)  { benchFillComplexNormal(b, 4096) }
func BenchmarkFillComplexNormal12000(b *testing.B) { benchFillComplexNormal(b, 12000) }

func BenchmarkNormFill512(b *testing.B) {
	s := newRandSource(1)
	buf := make([]float64, 512)
	for i := 0; i < b.N; i++ {
		s.normFill(buf)
	}
}
