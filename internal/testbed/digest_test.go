package testbed

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// digest folds every bit a trial leaves behind into a running SHA-256:
// outcome fields as raw Float64bits, and every burst on the session
// channel (start, source, and each IQ component), read before the next
// trial clears the medium.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) flag(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *digest) bursts(sc *Scenario) {
	bs := sc.Medium.Bursts(sc.Channel())
	d.u64(uint64(len(bs)))
	buf := make([]byte, 0, 16*1024)
	for _, b := range bs {
		d.u64(uint64(b.Start))
		d.u64(uint64(b.From))
		d.u64(uint64(len(b.IQ)))
		buf = buf[:0]
		for _, v := range b.IQ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(v)))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(v)))
			if len(buf) >= 16*1024 {
				d.h.Write(buf)
				buf = buf[:0]
			}
		}
		d.h.Write(buf)
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// digestExchanges calibrates a scenario and runs n protected exchanges
// on it, two Interrogates to every SetTherapy, hashing each outcome and
// the bursts it put on the air.
func digestExchanges(sc *Scenario, n int) string {
	d := newDigest()
	d.f64(sc.CalibrateShieldRSSI())
	d.bursts(sc)
	eaves := sc.NewEavesdropper()
	for i := 0; i < n; i++ {
		cmd := sc.InterrogateFrame()
		if i%3 == 2 {
			cmd = sc.SetTherapyFrame(byte(60 + i%100))
		}
		out, err := sc.RunProtectedExchange(eaves, 0, cmd)
		d.f64(out.CancellationDB)
		d.f64(out.EavesdropperBER)
		if err != nil {
			d.bytes([]byte(err.Error()))
		}
		if out.Response != nil {
			d.bytes(out.Response.Marshal())
		}
		d.bursts(sc)
	}
	return d.sum()
}

// digestAttacks runs replay-attack trials with the shield on and off,
// hashing each outcome and the bursts on the air.
func digestAttacks(sc *Scenario, n int) string {
	d := newDigest()
	d.f64(sc.CalibrateShieldRSSI())
	adv := sc.NewActiveAdversary()
	for i := 0; i < n; i++ {
		cmd := sc.SetTherapyFrame(byte(90 + i))
		out := sc.RunAttackTrial(adv, cmd, i%2 == 0)
		d.flag(out.Responded)
		d.flag(out.TherapyChanged)
		d.flag(out.Jammed)
		d.flag(out.Alarmed)
		d.f64(out.RSSIAtShieldDBm)
		d.bursts(sc)
	}
	return d.sum()
}

// TestExchangeBitDigest is the bitwise wall of the protected-exchange
// path: every value and every transmitted sample of 220 exchanges (two
// seeds, plus the digital-cancel receiver) and of shield-on and
// shield-off attack trials at two adversary powers must hash to the
// digests in testdata/exchange_digest.txt. Buffer reuse, kernel rewrites
// and transform pruning may change how those bits are computed, never
// what they are. An intentional physics change re-records by pasting
// the "got" block of the failure into that file.
func TestExchangeBitDigest(t *testing.T) {
	legs := []struct {
		name string
		run  func() string
	}{
		{"exchange-seed11", func() string { return digestExchanges(NewScenario(Options{Seed: 11}), 100) }},
		{"exchange-seed12-loc5", func() string { return digestExchanges(NewScenario(Options{Seed: 12, Location: 5}), 100) }},
		{"exchange-digital-cancel", func() string {
			return digestExchanges(NewScenario(Options{Seed: 13, DigitalCancel: true}), 20)
		}},
		{"attack-fcc", func() string { return digestAttacks(NewScenario(Options{Seed: 14}), 12) }},
		{"attack-high-power", func() string {
			return digestAttacks(NewScenario(Options{Seed: 15, Location: 3, AdversaryPowerDBm: HighPowerAdvDBm}), 12)
		}},
	}
	var got strings.Builder
	for _, l := range legs {
		fmt.Fprintf(&got, "%s %s\n", l.name, l.run())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "exchange_digest.txt"))
	if err != nil {
		t.Fatalf("missing digest file: %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("exchange digests drifted:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
