package stats

import "math"

// randSource is a devirtualized replica of math/rand's default generator:
// the additive lagged-Fibonacci source behind rand.NewSource plus the
// ziggurat normal sampler behind rand.(*Rand).NormFloat64. It produces
// streams bit-identical to rand.New(rand.NewSource(seed)) for every method
// the simulator uses — the stream-equality tests in randsource_test.go
// pin that contract per method and per seed.
//
// Why a replica instead of *rand.Rand: the receiver noise path draws two
// normals per observed sample, ~100k draws per protected exchange, and
// rand.Rand routes every draw through a Source64 interface call that the
// compiler cannot devirtualize or inline. Concrete types let the generator
// step inline into the ziggurat fast path, and normFill keeps the
// generator indices in registers across a whole run of draws. On a 2-vCPU
// Xeon (Go 1.24) the bulk normFill that every noise fill uses measures
// 6.5–6.7 ns/draw (BenchmarkNormFill512), scalar NormFloat64 9.3–10.7 ns
// and math/rand's NormFloat64 12.0–14.1 ns (five runs each). The scalar
// path alone is barely faster than math/rand; the gain is the bulk path.
// Draw sequences are physics here — every figure golden depends on them —
// so speed must never change the stream: any change to this file has to
// keep the equality tests (and the bitwise bulk walls in bulk_test.go)
// green.
//
// The rngCooked/kn/wn/fn tables in randsource_tables.go are generated from
// the Go toolchain's own math/rand sources (see gen_randsource_tables.go).
type randSource struct {
	tap, feed int
	vec       [rngLen]int64
}

//go:generate go run gen_randsource_tables.go

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = (1 << 63) - 1
	int32max = (1 << 31) - 1
	// zigguratR is the ziggurat tail cutoff for the standard normal
	// (math/rand's rn).
	zigguratR = 3.442619855899
)

// wn64 and fn64 are exact float64 widenings of the float32 ziggurat
// tables, precomputed so the NormFloat64 fast path avoids a per-draw
// conversion. Widening float32 to float64 is exact, so using wn64 in the
// fast-path product keeps the result bit-identical to math/rand's
// float64(j) * float64(wn[i]).
var wn64, fn64 [128]float64

func init() {
	for i := range wnTab {
		wn64[i] = float64(wnTab[i])
		fn64[i] = float64(fnTab[i])
	}
}

// seedrand is math/rand's Lehmer LCG seeding step (Schrage's method).
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// newRandSource returns a source whose stream matches
// rand.New(rand.NewSource(seed)) exactly.
func newRandSource(seed int64) *randSource {
	s := &randSource{tap: 0, feed: rngLen - rngTap}
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			u ^= rngCookedTab[i]
			s.vec[i] = u
		}
	}
	return s
}

// step advances the lagged-Fibonacci recurrence one position and returns
// the raw 64-bit word (before masking).
func (s *randSource) step() int64 {
	t := s.tap - 1
	if t < 0 {
		t += rngLen
	}
	f := s.feed - 1
	if f < 0 {
		f += rngLen
	}
	x := s.vec[f] + s.vec[t]
	s.vec[f] = x
	s.tap, s.feed = t, f
	return x
}

// Int63 returns a uniform int64 in [0, 1<<63).
func (s *randSource) Int63() int64 { return s.step() & rngMask }

// Uint32 matches rand.(*Rand).Uint32.
func (s *randSource) Uint32() uint32 { return uint32(s.Int63() >> 31) }

// Int31 matches rand.(*Rand).Int31.
func (s *randSource) Int31() int32 { return int32(s.Int63() >> 32) }

// Float64 returns a uniform sample in [0,1), preserving math/rand's
// historical Int63-over-2^63 value stream (including the retry on 1.0).
func (s *randSource) Float64() float64 {
again:
	f := float64(s.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// Int31n matches rand.(*Rand).Int31n: masked draw for powers of two,
// modulo with rejection otherwise.
func (s *randSource) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return s.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.Int31()
	for v > max {
		v = s.Int31()
	}
	return v % n
}

// Int63n matches rand.(*Rand).Int63n.
func (s *randSource) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// Intn matches rand.(*Rand).Intn, including the Int31n/Int63n width split.
func (s *randSource) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.Int31n(int32(n)))
	}
	return int(s.Int63n(int64(n)))
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// NormFloat64 is math/rand's ziggurat sampler: one generator step per
// attempt, mapped to a sample by zig, the same kernel normFill runs in
// bulk.
func (s *randSource) NormFloat64() float64 {
	for {
		x, j, i, ok := zig(s.step())
		if !ok {
			x, ok = s.normSlow(j, i, x)
		}
		if ok {
			return x
		}
	}
}

// zig is the ziggurat fast path, the only one in the package. It maps one
// raw generator word to the candidate sample x, its raw draw j and strip
// i, and reports whether x is accepted without normSlow; >99% of draws
// are: one table compare and one multiply.
func zig(x64 int64) (x float64, j, i int32, ok bool) {
	// j = int32(Uint32()) = int32(uint32(Int63() >> 31)), possibly
	// negative; the sign picks the half-axis.
	j = int32(uint32((uint64(x64) & rngMask) >> 31))
	i = j & 0x7F
	return float64(j) * wn64[i], j, i, absInt32(j) < knTab[i]
}

// normFill writes len(dst) standard normals into dst, drawing exactly the
// stream len(dst) NormFloat64 calls would. It steps the lagged-Fibonacci
// recurrence a run at a time: a run is as many steps as fit before the tap
// or the feed index wraps, taken over two equal-length windows of the
// state vector, so the per-draw wrap checks of step drop out. The
// strip-overlap and tail cases go to normSlow, which steps the generator
// itself, so the indices are written back around it.
func (s *randSource) normFill(dst []float64) {
	tap, feed := s.tap, s.feed
	for k := 0; k < len(dst); {
		if tap == 0 {
			tap = rngLen
		}
		if feed == 0 {
			feed = rngLen
		}
		// Each step yields at most one sample, so the run never needs to
		// outlast what is left of dst. Step q of the run is window index
		// run-1-q.
		run := min(tap, feed, len(dst)-k)
		vt := s.vec[tap-run : tap]
		vf := s.vec[feed-run : feed]
		vf = vf[:len(vt)] // equal lengths let the compiler drop vf's bounds check
		tap, feed = tap-run, feed-run
		for r := len(vt) - 1; r >= 0; r-- {
			x64 := vf[r] + vt[r]
			vf[r] = x64
			x, j, i, ok := zig(x64)
			if ok {
				dst[k] = x
				k++
				continue
			}
			s.tap, s.feed = tap+r, feed+r
			if x, ok = s.normSlow(j, i, x); ok {
				dst[k] = x
				k++
			}
			tap, feed = s.tap, s.feed
			break
		}
	}
	s.tap, s.feed = tap, feed
}

// normSlow handles the ziggurat strip-overlap and base-strip tail cases
// for zig's rejected candidate x. It returns the accepted sample and true,
// or false when the caller must redraw.
func (s *randSource) normSlow(j, i int32, x float64) (float64, bool) {
	if i == 0 {
		for {
			x = -math.Log(s.Float64()) * (1.0 / zigguratR)
			y := -math.Log(s.Float64())
			if y+y >= x*x {
				break
			}
		}
		if j > 0 {
			return zigguratR + x, true
		}
		return -zigguratR - x, true
	}
	return x, fnTab[i]+float32(s.Float64())*(fnTab[i-1]-fnTab[i]) < float32(math.Exp(-.5*x*x))
}
