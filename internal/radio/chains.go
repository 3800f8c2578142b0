// Package radio models the software-radio transmit and receive chains of
// every device in the simulation: power scaling and DAC quantization on
// transmit; thermal noise, carrier frequency offset, ADC quantization, and
// front-end overload on receive. These are the USRP2/RFX400 stand-ins for
// the paper's prototype — the impairments they introduce (finite antidote
// cancellation, saturation under high-power adversaries) bound the same
// quantities the paper measures (G in Fig. 7, Pthresh in Table 1).
package radio

import (
	"math"

	"heartshield/internal/dsp"
	"heartshield/internal/stats"
)

// TXChain converts unit-power baseband IQ into an over-the-air burst at
// the configured transmit power, applying DAC quantization and the
// transmitter's carrier frequency offset.
type TXChain struct {
	// PowerDBm is the transmit power a unit-power input is scaled to.
	PowerDBm float64
	// DACBits is the DAC resolution; 0 disables quantization.
	DACBits int
	// CFOHz is this transmitter's carrier offset from nominal.
	CFOHz float64
	// SampleRate is the baseband sample rate in Hz.
	SampleRate float64
}

// TransmitInto writes iq into dst as it leaves the antenna at powerDBm:
// scaled to that power (assuming unit-power input), quantized, and rotated
// by the chain's CFO. dst must hold len(iq) samples and may not overlap
// iq; the input is not modified. It is the chain's one transmit body —
// callers pass a buffer from the Medium for bursts that go on the air, or
// their own scratch for transmissions that never do (probes). It returns
// dst[:len(iq)].
func (t *TXChain) TransmitInto(dst, iq []complex128, powerDBm float64) []complex128 {
	out := dst[:len(iq)]
	amp := math.Sqrt(dsp.FromDBm(powerDBm))
	// Scale and quantize in one pass — this runs once per burst over
	// window-length buffers, so each saved sweep is measurable.
	camp := complex(amp, 0)
	if t.DACBits > 0 {
		q := newQuantizer(amp*1.25, t.DACBits)
		for i, v := range iq {
			v *= camp
			out[i] = complex(q.level(real(v)), q.level(imag(v)))
		}
	} else {
		for i, v := range iq {
			out[i] = v * camp
		}
	}
	if t.CFOHz != 0 {
		dsp.Mix(out, t.CFOHz, t.SampleRate, 0)
	}
	return out
}

// Transmit is TransmitInto at the configured PowerDBm, into a new slice.
func (t *TXChain) Transmit(iq []complex128) []complex128 {
	return t.TransmitInto(make([]complex128, len(iq)), iq, t.PowerDBm)
}

// TransmitAt is TransmitInto at an explicit power override in dBm, into
// a new slice; the chain's PowerDBm is neither read nor changed.
func (t *TXChain) TransmitAt(iq []complex128, powerDBm float64) []complex128 {
	return t.TransmitInto(make([]complex128, len(iq)), iq, powerDBm)
}

// quantizer is a bits-wide uniform quantizer with full scale fullScale
// that clips anything beyond.
type quantizer struct {
	fullScale, step, inv float64
}

func newQuantizer(fullScale float64, bits int) quantizer {
	levels := float64(int64(1) << uint(bits-1))
	step := fullScale / levels
	// Dividing by step costs a hardware divide per component; multiplying
	// by its reciprocal is ~4x cheaper and lands on the same code except
	// when the product sits within an ulp of a code boundary — continuous
	// signals cross that set with probability zero.
	return quantizer{fullScale: fullScale, step: step, inv: 1 / step}
}

// level returns the quantized value of v.
func (q quantizer) level(v float64) float64 {
	if v > q.fullScale {
		v = q.fullScale
	} else if v < -q.fullScale {
		v = -q.fullScale
	}
	// Floor(x+0.5) is the hardware-intrinsic round-half-up; it differs
	// from round-half-away only on exact half-codes, which continuous
	// signals hit with probability zero.
	return math.Floor(v*q.inv+0.5) * q.step
}

// quantize rounds I and Q of every sample of x with q.
func (q quantizer) quantize(x []complex128) {
	for i, v := range x {
		x[i] = complex(q.level(real(v)), q.level(imag(v)))
	}
}

// RXChain models a receiver front end. Process adds thermal noise for the
// configured noise floor, applies the receiver's carrier offset, models
// front-end overload for strong inputs, and quantizes with the ADC.
type RXChain struct {
	// NoiseFloorDBm is the integrated thermal noise over ChannelBW.
	NoiseFloorDBm float64
	// ChannelBW is the bandwidth the noise floor is quoted over (Hz).
	ChannelBW float64
	// SampleRate is the baseband sample rate (Hz); noise is spread over it.
	SampleRate float64
	// CFOHz is the receiver's carrier offset from nominal.
	CFOHz float64
	// ADCBits is the ADC resolution; 0 disables quantization.
	ADCBits int
	// OverloadDBm is the input power at which the front end saturates.
	// Inputs above it suffer rapidly growing distortion. Zero disables
	// overload modelling (treated as +inf).
	OverloadDBm float64
	// OverloadMarginDB is the signal-to-distortion ratio right at the
	// overload point; it shrinks ~2 dB per dB of additional input power.
	OverloadMarginDB float64
	// RNG drives the noise; it must be non-nil.
	RNG *stats.RNG
}

// DefaultOverloadMarginDB is used when OverloadMarginDB is zero.
const DefaultOverloadMarginDB = 12

// Process returns a new slice containing iq as seen after the front end:
// CFO-rotated, with thermal noise, overload distortion, and ADC
// quantization applied. The input is not modified.
func (r *RXChain) Process(iq []complex128) []complex128 {
	return r.ProcessInPlace(dsp.Clone(iq))
}

// ProcessInPlace applies the front end directly to iq and returns it —
// the buffer-reuse half of the receive contract: callers that own their
// observation buffer (everything that observes the medium through
// ObserveInto) chain it through the front end without a copy. The noise,
// distortion, and quantization draws are identical to Process's.
func (r *RXChain) ProcessInPlace(iq []complex128) []complex128 {
	out := iq
	if r.CFOHz != 0 {
		dsp.Mix(out, -r.CFOHz, r.SampleRate, 0)
	}
	inPower := dsp.Power(out)

	// Thermal noise: the floor is quoted over ChannelBW but the sample
	// stream spans SampleRate, so scale the per-sample variance.
	bwScale := 1.0
	if r.ChannelBW > 0 && r.SampleRate > 0 {
		bwScale = r.SampleRate / r.ChannelBW
	}
	noiseVar := dsp.FromDBm(r.NoiseFloorDBm) * bwScale

	// Front-end overload: above OverloadDBm the effective
	// signal-to-noise-and-distortion ratio collapses. Model the
	// intermodulation/AGC products as additional Gaussian distortion whose
	// power grows 3 dB per dB of excess drive (2 dB margin loss + 1 dB
	// input growth), plus hard clipping of the ADC. Its distortion draws
	// follow every thermal draw, so this branch works on the whole buffer.
	excess := 0.0
	if r.OverloadDBm != 0 && inPower > 0 {
		excess = dsp.DBm(inPower) - r.OverloadDBm
	}
	if excess > 0 {
		r.RNG.AddComplexNormal(out, noiseVar)
		margin := r.OverloadMarginDB
		if margin == 0 {
			margin = DefaultOverloadMarginDB
		}
		sndrDB := margin - 2*excess
		if sndrDB < 1 {
			sndrDB = 1
		}
		distVar := inPower / dsp.FromDB(sndrDB)
		r.RNG.AddComplexNormal(out, distVar)
		clip := math.Sqrt(dsp.FromDBm(r.OverloadDBm + 6))
		for i, v := range out {
			out[i] = complex(clamp(real(v), clip), clamp(imag(v), clip))
		}
		if r.ADCBits > 0 {
			newQuantizer(clip, r.ADCBits).quantize(out)
		}
		return out
	}

	// Below overload, add noise and quantize one cache-resident chunk at
	// a time; the noise draws stay in sample order, so the stream is the
	// same as one whole-buffer pass.
	var q quantizer
	if r.ADCBits > 0 {
		fs := math.Sqrt(dsp.FromDBm(r.OverloadDBm + 6))
		if r.OverloadDBm == 0 {
			fs = 4 * math.Sqrt(inPower+noiseVar)
		}
		q = newQuantizer(fs, r.ADCBits)
	}
	for off := 0; off < len(out); off += rxChunk {
		c := out[off:min(off+rxChunk, len(out))]
		r.RNG.AddComplexNormal(c, noiseVar)
		if r.ADCBits > 0 {
			q.quantize(c)
		}
	}
	return out
}

// rxChunk is the sample count ProcessInPlace noises and quantizes per
// pass: 4 KB of complex128, resident in L1 between the two.
const rxChunk = 256

func clamp(v, lim float64) float64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// RSSIdBm returns the mean power of iq expressed in dBm (assuming the
// simulation's sqrt-milliwatt amplitude convention).
func RSSIdBm(iq []complex128) float64 {
	return dsp.DBm(dsp.Power(iq))
}

// NoiseFloorDBm computes the thermal noise floor for a bandwidth and noise
// figure: -174 dBm/Hz + 10·log10(BW) + NF.
func NoiseFloorDBm(bandwidthHz, noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(bandwidthHz) + noiseFigureDB
}
