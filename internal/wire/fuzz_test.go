package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// legacyChallenge is the retired pre-v4 CHALLENGE frame: kind 0x03 and a
// 16-byte server nonce. Decode must reject it as an unknown kind.
var legacyChallenge = append([]byte{0x03}, "srvnonce-9876543"...)

// rawMessage wraps bytes that are no longer a message kind, so the seed
// corpus can put them in envelopes.
type rawMessage []byte

func (r rawMessage) Kind() byte     { return r[0] }
func (r rawMessage) Encode() []byte { return r }

// v2Envelope builds the retired wire-v2 envelope id(8) || message.
func v2Envelope(id uint64, m Message) []byte {
	return append(binary.BigEndian.AppendUint64(nil, id), m.Encode()...)
}

// FuzzWireDecode checks that both decoders — Decode for bare messages
// and DecodeEnvelopeV3 for the sealed-frame envelopes — are total (no
// input panics or over-allocates) and that everything they accept
// re-encodes to exactly the bytes accepted. The decoders sit behind
// securelink on the real wire, but defense in depth matters: a
// compromised peer with a valid session key must still not be able to
// crash the server with a malformed body, an oversize BATCH-EXCHANGE
// count, or a truncated envelope. Inputs in the retired v1–v3 formats
// (the legacy CHALLENGE, the v2 envelope without flags and cum) stay in
// the seed corpus.
func FuzzWireDecode(f *testing.F) {
	for _, m := range append(sampleMessages(), rawMessage(legacyChallenge)) {
		f.Add(m.Encode())
		f.Add(v2Envelope(0xABCD, m))
		f.Add(EncodeEnvelopeV3(0xABCD, EnvPartial, 0xABCC, m))
	}
	f.Add([]byte{})
	f.Add([]byte{KindExchangeResp, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{KindBatchReq, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{KindBatchResp, 0x00, 0x00, 0x01, 0x00})
	f.Add(bytes.Repeat([]byte{0x01}, 40))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if m, err := Decode(raw); err == nil {
			if re := m.Encode(); !bytes.Equal(re, raw) {
				t.Fatalf("accepted message does not round trip:\n in: %x\nout: %x", raw, re)
			}
		}
		if id, flags, cum, m, err := DecodeEnvelopeV3(raw); err == nil {
			if re := EncodeEnvelopeV3(id, flags, cum, m); !bytes.Equal(re, raw) {
				t.Fatalf("accepted envelope does not round trip:\n in: %x\nout: %x", raw, re)
			}
		}
	})
}
