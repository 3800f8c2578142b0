package shieldcore

import (
	"math"
	"math/rand"
	"testing"

	"heartshield/internal/dsp"
	"heartshield/internal/modem"
	"heartshield/internal/stats"
)

func TestJamGeneratorUnitPower(t *testing.T) {
	for _, shape := range []JamShape{ShapedJam, FlatJam} {
		g := NewJamGenerator(shape, modem.DefaultFSK, stats.NewRNG(1))
		x := g.Generate(50000)
		p := dsp.Power(x)
		if math.Abs(p-1) > 0.05 {
			t.Fatalf("%v jam power = %g, want ~1", shape, p)
		}
	}
}

func TestJamGeneratorFreshRandomness(t *testing.T) {
	g := NewJamGenerator(ShapedJam, modem.DefaultFSK, stats.NewRNG(2))
	// Generate reuses its internal buffer, so the first jam must be copied
	// out before drawing the second — the documented retention contract.
	a := dsp.Clone(g.Generate(1024))
	b := g.Generate(1024)
	// Normalized correlation between independent jams must be tiny.
	num := dsp.Dot(a, b)
	rho := (real(num)*real(num) + imag(num)*imag(num)) / (dsp.Energy(a) * dsp.Energy(b))
	if rho > 0.05 {
		t.Fatalf("successive jams correlate: ρ² = %g", rho)
	}
}

func TestShapedProfileMatchesFSK(t *testing.T) {
	// Fig. 5: the shaped jam concentrates power where the FSK tones are.
	g := NewJamGenerator(ShapedJam, modem.DefaultFSK, stats.NewRNG(3))
	x := g.Generate(1 << 16)
	psd := dsp.PSD(x, 256, dsp.Hann)
	fs := modem.DefaultFSK.SampleRate
	nearTones := dsp.BandPower(psd, fs, -75e3, -25e3) + dsp.BandPower(psd, fs, 25e3, 75e3)
	total := dsp.BandPower(psd, fs, -fs/2, fs/2)
	if frac := nearTones / total; frac < 0.7 {
		t.Fatalf("shaped jam tone-band fraction = %g, want > 0.7", frac)
	}
}

func TestFlatProfileUniformInChannel(t *testing.T) {
	g := NewJamGenerator(FlatJam, modem.DefaultFSK, stats.NewRNG(4))
	x := g.Generate(1 << 16)
	psd := dsp.PSD(x, 256, dsp.Hann)
	fs := modem.DefaultFSK.SampleRate
	// Compare power in two disjoint in-channel bands: a flat profile puts
	// (nearly) equal power in equal bandwidths.
	a := dsp.BandPower(psd, fs, -140e3, -70e3)
	b := dsp.BandPower(psd, fs, 10e3, 80e3)
	if ratio := a / b; ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("flat jam band ratio = %g, want ~1", ratio)
	}
	// And almost nothing outside the 300 kHz channel.
	out := dsp.BandPower(psd, fs, 170e3, fs/2)
	if out > 0.05*(a+b) {
		t.Fatalf("flat jam out-of-channel power = %g", out)
	}
}

func TestShapedBeatsFlatInToneBands(t *testing.T) {
	// The whole point of shaping (§6a): for the same total power, the
	// shaped jam puts several dB more energy into the decision-relevant
	// tone bands.
	fs := modem.DefaultFSK.SampleRate
	toneBand := func(shape JamShape, seed int64) float64 {
		g := NewJamGenerator(shape, modem.DefaultFSK, stats.NewRNG(seed))
		x := g.Generate(1 << 16)
		psd := dsp.PSD(x, 256, dsp.Hann)
		return dsp.BandPower(psd, fs, -62e3, -38e3) + dsp.BandPower(psd, fs, 38e3, 62e3)
	}
	shaped := toneBand(ShapedJam, 5)
	flat := toneBand(FlatJam, 6)
	if gain := dsp.DB(shaped / flat); gain < 3 {
		t.Fatalf("shaped-vs-flat tone-band gain = %g dB, want > 3", gain)
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	g := NewJamGenerator(ShapedJam, modem.DefaultFSK, stats.NewRNG(7))
	if out := g.Generate(0); out != nil {
		t.Fatal("Generate(0) should be nil")
	}
	if out := g.Generate(-5); out != nil {
		t.Fatal("Generate(<0) should be nil")
	}
	if out := g.Generate(10); len(out) != 10 {
		t.Fatalf("Generate(10) length = %d", len(out))
	}
	if g.Shape() != ShapedJam {
		t.Fatal("Shape accessor")
	}
	if len(g.Profile()) != jamFFTSize {
		t.Fatal("Profile length")
	}
}

func TestJamShapeString(t *testing.T) {
	if ShapedJam.String() != "shaped" || FlatJam.String() != "flat" {
		t.Fatal("JamShape names")
	}
}

func TestGenerateMatchesPerBinDraws(t *testing.T) {
	// The bulk per-bin fill must draw exactly what one complex normal per
	// bin, real part first, drew: the stats RNG replays math/rand's
	// stream, so math/rand is the reference. Compared bitwise, across a
	// partial last block.
	for _, shape := range []JamShape{ShapedJam, FlatJam} {
		g := NewJamGenerator(shape, modem.DefaultFSK, stats.NewRNG(21))
		ref := rand.New(rand.NewSource(21))
		for _, n := range []int{1, 256, 700, 4096} {
			got := g.Generate(n)
			want := make([]complex128, (n+jamFFTSize-1)/jamFFTSize*jamFFTSize)
			for off := 0; off < len(want); off += jamFFTSize {
				block := want[off : off+jamFFTSize]
				for k := range block {
					a := g.binAmp[k]
					block[k] = complex(a*ref.NormFloat64(), a*ref.NormFloat64())
				}
				jamFFT.InverseRaw(block)
			}
			for i, v := range got {
				w := want[i]
				if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
					t.Fatalf("%v n=%d sample %d: %v, want %v", shape, n, i, v, w)
				}
			}
		}
	}
}

func TestGenerateDoesNotAllocateWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	g := NewJamGenerator(ShapedJam, modem.DefaultFSK, stats.NewRNG(8))
	g.Generate(12000)
	if n := testing.AllocsPerRun(20, func() { g.Generate(12000) }); n != 0 {
		t.Fatalf("warm Generate allocates %v times per call, want 0", n)
	}
}

// Generate at the simulator's sizes: one 256-sample block, the 4096-sample
// cancellation probe and a 12000-sample IMD response window.

func benchGenerate(b *testing.B, n int) {
	g := NewJamGenerator(ShapedJam, modem.DefaultFSK, stats.NewRNG(1))
	g.Generate(n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(n)
	}
}

func BenchmarkJamGenerate256(b *testing.B)   { benchGenerate(b, 256) }
func BenchmarkJamGenerate4096(b *testing.B)  { benchGenerate(b, 4096) }
func BenchmarkJamGenerate12000(b *testing.B) { benchGenerate(b, 12000) }
