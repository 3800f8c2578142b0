package radio

import (
	"math"
	"testing"

	"heartshield/internal/dsp"
	"heartshield/internal/stats"
)

// The TX and RX chains run fused single passes. These tests keep the
// multi-pass composition they replaced and require bit-identical output
// and an identical RNG position afterwards.

// refQuantize is the whole-buffer quantizer pass the chains used to run.
func refQuantize(x []complex128, fullScale float64, bits int) {
	levels := float64(int64(1) << uint(bits-1))
	step := fullScale / levels
	inv := 1 / step
	q := func(v float64) float64 {
		if v > fullScale {
			v = fullScale
		} else if v < -fullScale {
			v = -fullScale
		}
		return math.Floor(v*inv+0.5) * step
	}
	for i, v := range x {
		x[i] = complex(q(real(v)), q(imag(v)))
	}
}

// refTransmit is Transmit as three passes: scale, quantize, mix.
func refTransmit(t *TXChain, iq []complex128) []complex128 {
	amp := math.Sqrt(dsp.FromDBm(t.PowerDBm))
	out := make([]complex128, len(iq))
	for i, v := range iq {
		out[i] = v * complex(amp, 0)
	}
	if t.DACBits > 0 {
		refQuantize(out, amp*1.25, t.DACBits)
	}
	if t.CFOHz != 0 {
		dsp.Mix(out, t.CFOHz, t.SampleRate, 0)
	}
	return out
}

// refProcess is ProcessInPlace as whole-buffer passes: mix, noise,
// overload distortion and clipping, quantize.
func refProcess(r *RXChain, out []complex128) []complex128 {
	if r.CFOHz != 0 {
		dsp.Mix(out, -r.CFOHz, r.SampleRate, 0)
	}
	inPower := dsp.Power(out)
	bwScale := 1.0
	if r.ChannelBW > 0 && r.SampleRate > 0 {
		bwScale = r.SampleRate / r.ChannelBW
	}
	noiseVar := dsp.FromDBm(r.NoiseFloorDBm) * bwScale
	r.RNG.AddComplexNormal(out, noiseVar)
	if r.OverloadDBm != 0 && inPower > 0 {
		excess := dsp.DBm(inPower) - r.OverloadDBm
		if excess > 0 {
			margin := r.OverloadMarginDB
			if margin == 0 {
				margin = DefaultOverloadMarginDB
			}
			sndrDB := margin - 2*excess
			if sndrDB < 1 {
				sndrDB = 1
			}
			r.RNG.AddComplexNormal(out, inPower/dsp.FromDB(sndrDB))
			clip := math.Sqrt(dsp.FromDBm(r.OverloadDBm + 6))
			for i, v := range out {
				out[i] = complex(clamp(real(v), clip), clamp(imag(v), clip))
			}
		}
	}
	if r.ADCBits > 0 {
		fs := math.Sqrt(dsp.FromDBm(r.OverloadDBm + 6))
		if r.OverloadDBm == 0 {
			fs = 4 * math.Sqrt(inPower+noiseVar)
		}
		refQuantize(out, fs, r.ADCBits)
	}
	return out
}

func requireSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s sample %d: got %v, want %v", what, i, got[i], want[i])
		}
	}
}

// noisyBurst is a unit-power tone with a little noise, so the DAC and ADC
// see continuous values that exercise rounding and clipping.
func noisyBurst(n int, seed int64) []complex128 {
	x := unitTone(n)
	stats.NewRNG(seed).AddComplexNormal(x, 0.3)
	return x
}

func TestTransmitMatchesMultiPassBitwise(t *testing.T) {
	for _, tx := range []TXChain{
		{PowerDBm: -16, DACBits: 14, CFOHz: 1.5e3, SampleRate: 600e3},
		{PowerDBm: 4, DACBits: 8, SampleRate: 600e3},    // CFOHz = 0, coarse DAC clips
		{PowerDBm: -36, CFOHz: -2e3, SampleRate: 600e3}, // DACBits = 0
		{PowerDBm: 0, SampleRate: 600e3},                // neither
	} {
		for _, n := range []int{1, 255, 256, 257, 4096, 12000} {
			in := noisyBurst(n, int64(n))
			requireSameBits(t, "Transmit", tx.Transmit(in), refTransmit(&tx, dsp.Clone(in)))
		}
	}
}

func TestProcessInPlaceMatchesMultiPassBitwise(t *testing.T) {
	for name, rx := range map[string]RXChain{
		"adc+overload-off": {NoiseFloorDBm: -100, ChannelBW: 300e3, SampleRate: 600e3, ADCBits: 12},
		"adc+cfo+headroom": {NoiseFloorDBm: -100, ChannelBW: 300e3, SampleRate: 600e3, ADCBits: 12, CFOHz: 2e3, OverloadDBm: 10},
		"no-adc":           {NoiseFloorDBm: -90, ChannelBW: 300e3, SampleRate: 600e3, CFOHz: -1e3, OverloadDBm: 10},
		"overload+adc":     {NoiseFloorDBm: -100, ChannelBW: 300e3, SampleRate: 600e3, ADCBits: 10, OverloadDBm: -20},
		"overload-no-adc":  {NoiseFloorDBm: -100, SampleRate: 600e3, CFOHz: 1e3, OverloadDBm: -6, OverloadMarginDB: 20},
		"coarse-adc-clips": {NoiseFloorDBm: -40, ChannelBW: 300e3, SampleRate: 600e3, ADCBits: 4},
	} {
		for _, n := range []int{1, 255, 256, 257, 4096, 12000} {
			in := noisyBurst(n, int64(n)+1)
			fused, multi := rx, rx
			fused.RNG, multi.RNG = stats.NewRNG(11), stats.NewRNG(11)
			got := fused.ProcessInPlace(dsp.Clone(in))
			want := refProcess(&multi, dsp.Clone(in))
			requireSameBits(t, name, got, want)
			if g, w := fused.RNG.Int63(), multi.RNG.Int63(); g != w {
				t.Fatalf("%s n=%d: RNG position differs after ProcessInPlace (%d vs %d)", name, n, g, w)
			}
		}
	}
}

func TestProcessInPlaceOverloadDoesNotAllocate(t *testing.T) {
	rx := &RXChain{
		NoiseFloorDBm: -100, ChannelBW: 300e3, SampleRate: 600e3,
		ADCBits: 12, OverloadDBm: -20, RNG: stats.NewRNG(9),
	}
	buf := unitTone(12000)
	if allocs := testing.AllocsPerRun(20, func() { rx.ProcessInPlace(buf) }); allocs != 0 {
		t.Fatalf("overloaded ProcessInPlace allocates %.1f times per call, want 0", allocs)
	}
}

// Microbenchmarks at the modem's sizes: 256 (one jam block), 4096 (the
// cancellation probe) and 12000 (one IMD response window).

func benchProcessInPlace(b *testing.B, n int) {
	rx := &RXChain{
		NoiseFloorDBm: -100, ChannelBW: 300e3, SampleRate: 600e3,
		ADCBits: 14, OverloadDBm: 10, RNG: stats.NewRNG(1),
	}
	buf := unitTone(n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.ProcessInPlace(buf)
	}
}

func BenchmarkProcessInPlace256(b *testing.B)   { benchProcessInPlace(b, 256) }
func BenchmarkProcessInPlace4096(b *testing.B)  { benchProcessInPlace(b, 4096) }
func BenchmarkProcessInPlace12000(b *testing.B) { benchProcessInPlace(b, 12000) }

func benchTransmit(b *testing.B, n int) {
	tx := &TXChain{PowerDBm: -16, DACBits: 14, SampleRate: 600e3}
	in := unitTone(n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Transmit(in)
	}
}

func BenchmarkTransmit256(b *testing.B)   { benchTransmit(b, 256) }
func BenchmarkTransmit4096(b *testing.B)  { benchTransmit(b, 4096) }
func BenchmarkTransmit12000(b *testing.B) { benchTransmit(b, 12000) }
