// Package modem implements the modulations used in the MICS-band
// simulation: the binary FSK scheme the IMDs and the shield speak
// (phase-continuous 2-FSK with noncoherent detection, per the optimal
// receiver in Meyr et al.), and GMSK for the meteorological cross-traffic
// of the coexistence experiment.
package modem

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"heartshield/internal/dsp"
	"heartshield/internal/phy"
)

// FSKConfig describes a binary FSK PHY.
type FSKConfig struct {
	SampleRate float64 // baseband sample rate, Hz
	SymbolRate float64 // symbols (= bits) per second
	Deviation  float64 // tone offset: bit 1 at +Deviation, bit 0 at -Deviation
}

// DefaultFSK is the PHY used by the simulated Medtronic-style IMDs:
// 50 kbit/s with ±50 kHz tones inside a 300 kHz MICS channel, sampled at
// 600 kHz. The tone separation (2×50 kHz = 2/T) keeps the tones orthogonal
// for noncoherent detection, and concentrates the transmit energy around
// ±50 kHz exactly as the captured Virtuoso profile in Fig. 4 of the paper.
var DefaultFSK = FSKConfig{
	SampleRate: 600e3,
	SymbolRate: 50e3,
	Deviation:  50e3,
}

// SamplesPerSymbol returns the integer oversampling factor. The
// configuration must divide evenly.
func (c FSKConfig) SamplesPerSymbol() int {
	sps := c.SampleRate / c.SymbolRate
	n := int(sps + 0.5)
	if math.Abs(sps-float64(n)) > 1e-9 || n <= 0 {
		panic(fmt.Sprintf("modem: sample rate %g not an integer multiple of symbol rate %g", c.SampleRate, c.SymbolRate))
	}
	return n
}

// BitDuration returns the duration of one bit in samples.
func (c FSKConfig) BitDuration() int { return c.SamplesPerSymbol() }

// SamplesForBits returns the sample count of a bits-long transmission.
func (c FSKConfig) SamplesForBits(bits int) int { return bits * c.SamplesPerSymbol() }

// SamplesForDuration converts seconds to samples.
func (c FSKConfig) SamplesForDuration(sec float64) int {
	return int(sec*c.SampleRate + 0.5)
}

// Duration converts samples to seconds.
func (c FSKConfig) Duration(samples int) float64 { return float64(samples) / c.SampleRate }

// FSK is a binary FSK modem. It is safe for concurrent use by multiple
// goroutines after construction: the precomputed tables are read-only and
// per-call scratch comes from an internal pool.
type FSK struct {
	cfg     FSKConfig
	sps     int
	syncRef []complex128 // modulated preamble+sync, the timing reference

	// Sync acceleration: the reference is split into segLen-sample
	// segments correlated by FFT overlap-save. Equal segments (the
	// preamble repeats one 4-bit pattern) share one correlation, so the
	// plan holds only the unique segment waveforms.
	segLen  int
	nSeg    int
	refSegE []float64 // per-segment reference energy
	segRef  []int     // segment index -> unique reference index
	xcPlan  *dsp.XCorrPlan
	// refOffs[u] holds the first and last segment offsets (samples) at
	// which unique reference u is read; a chunk of L lags needs its lags
	// [first, last+L) and no others.
	refOffs []dsp.LagSpan

	// Demod acceleration: tone[n] = e^{-j 2π Deviation n / fs}, the
	// cfo-free +Deviation matched phasor; the -Deviation hypothesis is its
	// conjugate and the CFO de-rotation is applied by complex recurrence.
	tone []complex128

	syncPool sync.Pool // *syncScratch

	// frameCache memoizes ModulateFrame outputs keyed by the marshaled
	// bit string: modulation is a pure function of the bits, so command
	// frames (identical every exchange) modulate once per process. The
	// cache is bounded; once full, new frames just modulate uncached.
	frameCache  sync.Map // string -> []complex128 (read-only)
	frameCacheN atomic.Int32
}

// frameCacheMax bounds the per-modem frame cache. Command frames (one
// per IMD serial) hit it forever; randomized response payloads stop
// being inserted once the bound is reached.
const frameCacheMax = 64

type syncScratch struct {
	corr   [][]complex128
	spans  []dsp.LagSpan // per-reference lag spans of the current chunk
	prefix []float64
	out    []float64 // per-chunk metric buffer for the streaming scan
}

// NewFSK builds a modem for the given configuration.
func NewFSK(cfg FSKConfig) *FSK {
	m := &FSK{cfg: cfg, sps: cfg.SamplesPerSymbol()}
	m.tone = make([]complex128, m.sps)
	step := -2 * math.Pi * cfg.Deviation / cfg.SampleRate
	for n := range m.tone {
		s, c := math.Sincos(step * float64(n))
		m.tone[n] = complex(c, s)
	}

	syncBits := phy.BytesToBits(syncRefBytes())
	m.syncRef = m.Modulate(syncBits)

	m.buildSyncPlan()
	m.syncPool.New = func() any { return &syncScratch{} }
	return m
}

// buildSyncPlan slices the sync reference into the noncoherent-combining
// segments and prepares the FFT correlation plan over the unique ones.
func (m *FSK) buildSyncPlan() {
	n := len(m.syncRef)
	if n == 0 {
		return
	}
	m.segLen = 4 * m.sps
	if m.segLen > n {
		m.segLen = n
	}
	m.nSeg = n / m.segLen
	m.refSegE = make([]float64, m.nSeg)
	m.segRef = make([]int, m.nSeg)
	var uniq [][]complex128
	for s := 0; s < m.nSeg; s++ {
		seg := m.syncRef[s*m.segLen : (s+1)*m.segLen]
		m.refSegE[s] = dsp.Energy(seg)
		m.segRef[s] = -1
		for u, ur := range uniq {
			if segAlmostEqual(seg, ur) {
				m.segRef[s] = u
				break
			}
		}
		if m.segRef[s] < 0 {
			m.segRef[s] = len(uniq)
			uniq = append(uniq, seg)
			m.refOffs = append(m.refOffs, dsp.LagSpan{Lo: s * m.segLen})
		}
		m.refOffs[m.segRef[s]].Hi = s * m.segLen
	}
	m.xcPlan = dsp.NewXCorrPlan(uniq...)
}

// segAlmostEqual reports whether two modulated segments are the same
// waveform. Phase-continuous modulation accumulates rounding, so repeats of
// the same bit pattern differ at the 1e-15 level; sharing one correlation
// among them perturbs the sync metric far below its noise floor.
func segAlmostEqual(a, b []complex128) bool {
	for i := range a {
		d := a[i] - b[i]
		if math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
			return false
		}
	}
	return true
}

func syncRefBytes() []byte {
	b := make([]byte, 0, phy.PreambleBytes+phy.SyncBytes)
	for i := 0; i < phy.PreambleBytes; i++ {
		b = append(b, phy.PreambleByte)
	}
	return append(b, phy.SyncWord[:]...)
}

// Config returns the modem configuration.
func (m *FSK) Config() FSKConfig { return m.cfg }

// SyncRefLen returns the length in samples of the sync reference
// (preamble + sync word).
func (m *FSK) SyncRefLen() int { return len(m.syncRef) }

// Modulate produces unit-power phase-continuous FSK baseband IQ for the
// given bits (one byte per bit, LSB significant).
func (m *FSK) Modulate(bits []byte) []complex128 {
	out := make([]complex128, len(bits)*m.sps)
	// One Sincos per bit: the carrier phase is tracked exactly across bit
	// boundaries and the within-bit ramp comes from the precomputed tone
	// table (m.tone is the -Deviation ramp; its conjugate is +Deviation).
	phase := 0.0
	stepBit := 2 * math.Pi * m.cfg.Deviation / m.cfg.SampleRate * float64(m.sps)
	i := 0
	for _, b := range bits {
		sin, cos := math.Sincos(phase)
		w := complex(cos, sin)
		if b&1 == 1 {
			for _, t := range m.tone {
				out[i] = w * complex(real(t), -imag(t))
				i++
			}
			phase += stepBit
		} else {
			for _, t := range m.tone {
				out[i] = w * t
				i++
			}
			phase -= stepBit
		}
		phase = math.Mod(phase, 2*math.Pi)
	}
	return out
}

// ModulateFrame modulates a PHY frame to unit-power IQ. The returned
// slice may be shared with other callers (repeated frames are served
// from a cache) and must be treated as read-only; every transmit path
// writes its TX-chain output to a separate buffer (TXChain.TransmitInto).
func (m *FSK) ModulateFrame(f *phy.Frame) []complex128 {
	bits := f.MarshalBits()
	key := string(bits)
	if v, ok := m.frameCache.Load(key); ok {
		return v.([]complex128)
	}
	iq := m.Modulate(bits)
	if m.frameCacheN.Add(1) <= frameCacheMax {
		m.frameCache.Store(key, iq)
	} else {
		m.frameCacheN.Add(-1)
	}
	return iq
}

// DemodBits performs optimal noncoherent detection of nbits bits from x,
// assuming the first symbol starts at sample 0 and the residual carrier
// frequency offset is cfoHz. Each symbol window is correlated against the
// two tone hypotheses; the larger envelope wins. If x is too short, only
// the bits fully contained in x are returned.
func (m *FSK) DemodBits(x []complex128, nbits int, cfoHz float64) []byte {
	avail := len(x) / m.sps
	if nbits > avail {
		nbits = avail
	}
	if nbits <= 0 {
		return nil
	}
	bits := make([]byte, nbits)
	m.demodInto(bits, x, cfoHz)
	return bits
}

// demodInto decides len(bits) bits from x (first symbol at sample 0).
// Every bit is decided independently from its own symbol window — the
// de-rotation recurrence restarts per symbol — so receiveAt can
// demodulate a frame in header+body phases with results bit-identical
// to one continuous call.
func (m *FSK) demodInto(bits []byte, x []complex128, cfoHz float64) {
	// The two tone hypotheses are the precomputed ±Deviation phasor table
	// (conjugates of each other); the CFO de-rotation advances by complex
	// recurrence, costing one Sincos per call instead of two per sample.
	// Each envelope differs from the brute-force phase accumulation only by
	// a per-symbol global rotation, which noncoherent detection ignores.
	ws, wc := math.Sincos(-2 * math.Pi * cfoHz / m.cfg.SampleRate)
	wStep := complex(wc, ws)
	tone := m.tone
	for k := range bits {
		seg := x[k*m.sps : (k+1)*m.sps]
		// With u = de-rotated sample and tone[n] = c+js, the hypotheses are
		// cHi = Σu·(c+js) = P+jQ and cLo = Σu·(c-js) = P-jQ for
		// P = Σu·c, Q = Σu·s — so one pass of two real-scalar
		// accumulations decides the bit: |P+jQ|² > |P-jQ|² iff
		// Im(conj(P)·Q) < 0.
		var pr, pi, qr, qi float64
		w := complex(1, 0)
		for n, v := range seg {
			u := v * w
			c, s := real(tone[n]), imag(tone[n])
			ur, ui := real(u), imag(u)
			pr += ur * c
			pi += ui * c
			qr += ur * s
			qi += ui * s
			w *= wStep
		}
		if pr*qi-pi*qr < 0 {
			bits[k] = 1
		}
	}
}

func magSq(c complex128) float64 {
	return real(c)*real(c) + imag(c)*imag(c)
}

// SyncResult reports a detected frame start.
type SyncResult struct {
	Start  int     // sample index of the first preamble sample
	Metric float64 // normalized correlation in [0,1]
	CFOHz  float64 // estimated carrier frequency offset
}

// Sync searches x for the preamble+sync reference and returns the best
// alignment if its correlation metric exceeds threshold (0.5 is a
// reasonable default). The metric combines the reference in short segments
// noncoherently so that a carrier frequency offset of a few kHz does not
// destroy the peak. It then estimates the CFO over the sync reference.
//
// The scan is streaming, like the hardware it models: the metric is
// evaluated in fixed chunks of lags and the search stops once an
// above-threshold peak has been confirmed by a full reference length of
// later lags none of which beat it. The guard covers the ±2-bit sidelobe
// comb the periodic preamble produces around the true alignment, so the
// returned lag is the same argmax an exhaustive sweep finds whenever the
// first confirmed peak is the frame (a later *stronger* spurious peak in a
// pure-noise tail can no longer steal the lock, which is the causal
// receiver's behaviour anyway).
func (m *FSK) Sync(x []complex128, threshold float64) (SyncResult, bool) {
	n := len(m.syncRef)
	if n == 0 || n > len(x) {
		return SyncResult{}, false
	}
	nLags := len(x) - n + 1

	sc := m.syncPool.Get().(*syncScratch)
	defer m.syncPool.Put(sc)
	if cap(sc.out) < syncChunkLags {
		sc.out = make([]float64, syncChunkLags)
	}

	best, bestV := -1, 0.0
	for lo := 0; lo < nLags; lo += syncChunkLags {
		hi := lo + syncChunkLags
		if hi > nLags {
			hi = nLags
		}
		out := sc.out[:hi-lo]
		m.syncChunk(x, lo, hi, out, sc)
		for i, v := range out {
			if v > bestV {
				bestV = v
				best = lo + i
			}
		}
		if best >= 0 && bestV >= threshold && hi-best >= n {
			break
		}
	}
	if best < 0 || bestV < threshold {
		return SyncResult{}, false
	}
	res := SyncResult{Start: best, Metric: bestV}
	res.CFOHz = m.EstimateCFO(x, best)
	return res, true
}

// syncChunkLags is the fixed lag-range granule of the metric sweep. Each
// chunk correlates its own slice of x, so the streaming scan in Sync can
// stop as soon as a peak is confirmed instead of sweeping the whole
// window; the fixed grid keeps the computed values bit-identical no matter
// where the scan stops or what machine runs it.
const syncChunkLags = 1024

// syncMetric returns, per candidate lag, the CFO-tolerant normalized
// correlation against the sync reference: the reference is split into
// 4-bit segments whose correlation magnitudes are combined noncoherently,
// then normalized by segment energies so the metric stays in [0,1]. This
// is the exhaustive sweep over every lag; Sync itself scans chunk by chunk
// and stops early once it has a confirmed peak.
func (m *FSK) syncMetric(x []complex128) []float64 {
	n := len(m.syncRef)
	if n == 0 || n > len(x) {
		return nil
	}
	nLags := len(x) - n + 1
	out := make([]float64, nLags)
	sc := m.syncPool.Get().(*syncScratch)
	defer m.syncPool.Put(sc)
	for lo := 0; lo < nLags; lo += syncChunkLags {
		hi := lo + syncChunkLags
		if hi > nLags {
			hi = nLags
		}
		m.syncChunk(x, lo, hi, out[lo:hi], sc)
	}
	return out
}

// syncChunk fills out (hi-lo entries) with the metric for lags [lo, hi):
// one FFT correlation sweep per unique segment waveform (the block forward
// transforms are shared across them), and O(1) sliding segment energies
// from a prefix sum, replacing the former per-lag recomputation. Each
// unique waveform is only correlated over the lags its segments read, so
// the preamble's repeated pattern skips the blocks past its last
// repetition and the later segments skip the blocks before their first.
func (m *FSK) syncChunk(x []complex128, lo, hi int, out []float64, sc *syncScratch) {
	span := m.nSeg * m.segLen
	sub := x[lo : hi-1+span]

	sc.spans = append(sc.spans[:0], m.refOffs...)
	for u := range sc.spans {
		sc.spans[u].Hi += hi - lo
	}
	sc.corr = m.xcPlan.CorrelateAll(sc.corr, sub, sc.spans)
	sc.prefix = dsp.PrefixEnergy(sc.prefix, sub)

	for i := range out {
		out[i] = 0
	}
	for s := 0; s < m.nSeg; s++ {
		cs := sc.corr[m.segRef[s]]
		pre := sc.prefix
		off := s * m.segLen
		refE := m.refSegE[s]
		for i := range out {
			c := cs[i+off]
			segE := pre[i+off+m.segLen] - pre[i+off]
			if den := segE * refE; den > 0 {
				re, im := real(c), imag(c)
				out[i] += (re*re + im*im) / den
			}
		}
	}
	inv := 1 / float64(m.nSeg)
	for i := range out {
		out[i] *= inv
	}
}

// EstimateCFO estimates the carrier frequency offset of a transmission
// whose preamble starts at sample index start, by de-rotating the received
// sync region with the known reference and measuring the phase slope of
// the residual. The unambiguous range is ±SampleRate/(2·sps).
func (m *FSK) EstimateCFO(x []complex128, start int) float64 {
	n := len(m.syncRef)
	if start < 0 || start+n > len(x) {
		return 0
	}
	lag := m.sps
	var acc complex128
	// Streaming form of acc += z[i+lag]*conj(z[i]) with
	// z[i] = x[start+i]*conj(ref[i]), so no de-rotated copy is allocated.
	for i := 0; i+lag < n; i++ {
		ra, rb := m.syncRef[i+lag], m.syncRef[i]
		za := x[start+i+lag] * complex(real(ra), -imag(ra))
		zb := x[start+i] * complex(real(rb), -imag(rb))
		acc += za * complex(real(zb), -imag(zb))
	}
	if acc == 0 {
		return 0
	}
	ang := math.Atan2(imag(acc), real(acc))
	return ang * m.cfg.SampleRate / (2 * math.Pi * float64(lag))
}

// RxFrame is the result of a full frame reception attempt.
type RxFrame struct {
	Sync  SyncResult
	Bits  []byte     // all demodulated bits starting at the preamble
	Frame *phy.Frame // non-nil only if the CRC checked out
	Err   error      // parse error when Frame is nil
}

// ReceiveFrame runs the complete receive path on x: preamble search, CFO
// estimation, noncoherent demodulation, and CRC-checked frame parsing.
// It returns false if no preamble was found above the sync threshold.
func (m *FSK) ReceiveFrame(x []complex128, threshold float64) (RxFrame, bool) {
	sr, ok := m.Sync(x, threshold)
	if !ok {
		return RxFrame{}, false
	}
	return m.receiveAt(x, sr), true
}

// ReceiveFrameAt runs the receive path with known timing (genie sync):
// the preamble is assumed to start exactly at sample index start. The CFO
// is still estimated from the signal. This is used by the experiment
// harness to measure raw BER at an eavesdropper that is given the best
// possible timing information.
func (m *FSK) ReceiveFrameAt(x []complex128, start int) RxFrame {
	sr := SyncResult{Start: start, Metric: 1}
	sr.CFOHz = m.EstimateCFO(x, start)
	return m.receiveAt(x, sr)
}

func (m *FSK) receiveAt(x []complex128, sr SyncResult) RxFrame {
	maxBits := (len(x) - sr.Start) / m.sps
	// The longest legal frame bounds the demodulation window.
	limit := phy.AirBits(phy.MaxPayload)
	if maxBits > limit {
		maxBits = limit
	}
	seg := x[sr.Start:]
	hdrBits := phy.AirBits(0)
	if maxBits < hdrBits {
		// Too short for even an empty frame; demodulate what is there so
		// Bits still records the attempt.
		bits := make([]byte, maxBits)
		m.demodInto(bits, seg, sr.CFOHz)
		return RxFrame{Sync: sr, Bits: bits, Err: phy.ErrFrameTooShort}
	}
	// Phase 1: demodulate only the header and decode the length field, so
	// phase 2 can stop at the frame's actual extent instead of the
	// longest-legal-frame bound. Bits are decided independently per
	// symbol, so the split is bit-identical to one continuous call — but
	// a short command frame skips ~3/4 of the window.
	bits := make([]byte, hdrBits, maxBits)
	m.demodInto(bits, seg, sr.CFOHz)
	raw := phy.BitsToBytes(bits)
	plen := int(raw[phy.PreambleBytes+phy.SyncBytes+phy.SerialBytes+1])
	want := phy.AirBytes(plen)
	parseable := plen <= phy.MaxPayload && want*8 <= maxBits
	target := maxBits
	if parseable {
		target = want * 8
	}
	if target > hdrBits {
		bits = bits[:target]
		m.demodInto(bits[hdrBits:], seg[hdrBits*m.sps:], sr.CFOHz)
	}
	res := RxFrame{Sync: sr, Bits: bits}
	if parseable {
		f, err := phy.ParseFrame(phy.BitsToBytes(bits)[:want])
		res.Frame, res.Err = f, err
		return res
	}
	res.Err = phy.ErrFrameTooShort
	return res
}
