package dsp

import (
	"math"
	"testing"

	"heartshield/internal/stats"
)

// refStageR4 is the radix-4 Stockham stage loop before the j=0 butterfly
// group was peeled: every group, the last stage included, multiplies by
// its twiddles. The peeled stages must reproduce it bit for bit.
func refStageR4(dst, src []complex128, st *fftStage, inv bool) {
	m, s := st.m, st.s
	tw := st.twF
	if inv {
		tw = st.twI
	}
	for j := 0; j < m; j++ {
		w1, w2, w3 := tw[3*j], tw[3*j+1], tw[3*j+2]
		for q := 0; q < s; q++ {
			a, b, c, d := src[s*j+q], src[s*(j+m)+q], src[s*(j+2*m)+q], src[s*(j+3*m)+q]
			apc, amc := a+c, a-c
			bpd := b + d
			bmd := b - d
			jb := complex(-imag(bmd), real(bmd))
			if inv {
				jb = -jb
			}
			o0 := s * 4 * j
			dst[o0+q] = apc + bpd
			dst[o0+s+q] = (amc - jb) * w1
			dst[o0+2*s+q] = (apc - bpd) * w2
			dst[o0+3*s+q] = (amc + jb) * w3
		}
	}
}

// refTransform is FFTPlan.transform over refStageR4, radix-2 tail
// included.
func refTransform(p *FFTPlan, x []complex128, inv bool) []complex128 {
	src := append([]complex128(nil), x...)
	dst := make([]complex128, len(x))
	for i := range p.stages {
		refStageR4(dst, src, &p.stages[i], inv)
		src, dst = dst, src
	}
	if p.hasR2 {
		h := len(x) / 2
		for q := 0; q < h; q++ {
			a, b := src[q], src[q+h]
			dst[q] = a + b
			dst[q+h] = a - b
		}
		src = dst
	}
	return src
}

func TestFFTPeeledStagesMatchReferenceBitwise(t *testing.T) {
	rng := stats.NewRNG(52)
	for n := 2; n <= 8192; n *= 2 {
		p := NewFFTPlan(n)
		x := randComplexRNG(rng, n)
		for _, inv := range []bool{false, true} {
			want := refTransform(p, x, inv)
			got := append([]complex128(nil), x...)
			if inv {
				p.InverseRaw(got)
			} else {
				p.Forward(got)
			}
			for k := range got {
				if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
					math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
					t.Fatalf("n=%d inverse=%v bin %d: got %v, want %v", n, inv, k, got[k], want[k])
				}
			}
		}
	}
}

func BenchmarkFFTInverseRaw4096(b *testing.B) {
	p := NewFFTPlan(4096)
	buf := randComplexRNG(stats.NewRNG(53), 4096)
	b.SetBytes(16 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InverseRaw(buf)
	}
}
