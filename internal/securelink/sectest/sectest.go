// Package sectest is the adversarial harness behind the handshake
// security wall (`make seccheck`): a transcript recorder, a recorder
// that synthesizes a session under the retired v1–v3 key schedule, an
// offline attacker that tries to recover session keys from a recording
// plus the long-term master secret, a hand-rolled v4 handshake the
// tests can drive with stolen or replayed credentials, and a
// frame-rewriting MITM relay for downgrade attacks.
//
// The attacker here is deliberately strong: it knows the protocol, the
// key schedule, and the provisioned master secret. What it never holds
// is an ephemeral private key or a resumption secret — exactly the
// material the v4 handshake puts between a recorded session and a
// later key compromise.
package sectest

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync"

	"heartshield/internal/securelink"
	"heartshield/internal/wire"
)

// Recording is one session's transcript, split by direction, as transport
// frames in send order.
type Recording struct {
	ClientFrames [][]byte // frames the client wrote
	ServerFrames [][]byte // frames the server wrote
}

// TapConn wraps a stream transport and records both directions. Safe for
// the one-reader/any-writers discipline shieldd clients follow.
type TapConn struct {
	net.Conn
	mu   sync.Mutex
	sent bytes.Buffer
	rcvd bytes.Buffer
}

// NewTapConn wraps conn with a transcript recorder.
func NewTapConn(conn net.Conn) *TapConn { return &TapConn{Conn: conn} }

func (t *TapConn) Write(b []byte) (int, error) {
	t.mu.Lock()
	t.sent.Write(b)
	t.mu.Unlock()
	return t.Conn.Write(b)
}

func (t *TapConn) Read(b []byte) (int, error) {
	n, err := t.Conn.Read(b)
	if n > 0 {
		t.mu.Lock()
		t.rcvd.Write(b[:n])
		t.mu.Unlock()
	}
	return n, err
}

// Recording re-frames the captured byte streams into the transport
// frames they carried.
func (t *TapConn) Recording() (*Recording, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sent, err := reframe(t.sent.Bytes())
	if err != nil {
		return nil, fmt.Errorf("sectest: client stream: %w", err)
	}
	rcvd, err := reframe(t.rcvd.Bytes())
	if err != nil {
		return nil, fmt.Errorf("sectest: server stream: %w", err)
	}
	return &Recording{ClientFrames: sent, ServerFrames: rcvd}, nil
}

func reframe(stream []byte) ([][]byte, error) {
	var frames [][]byte
	r := bytes.NewReader(stream)
	for r.Len() > 0 {
		f, err := wire.ReadFrame(r)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// legacyChallengeKind is the kind byte of the retired pre-v4 CHALLENGE
// frame: 0x03 followed by the 16-byte server nonce. The wire package no
// longer decodes it; the attacker here parses it itself.
const legacyChallengeKind = 0x03

// legacyChallenge encodes a retired pre-v4 CHALLENGE frame.
func legacyChallenge(serverNonce [16]byte) []byte {
	return append([]byte{legacyChallengeKind}, serverNonce[:]...)
}

// legacySessionSecret is the retired v1–v3 key schedule: the session
// secret was a pure function of the master secret and the two handshake
// nonces, both of which crossed the wire in plaintext.
func legacySessionSecret(master, nonces []byte) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte("securelink session v1"))
	mac.Write(nonces)
	return mac.Sum(nil)
}

// RecordLegacySession synthesizes the transcript of one session keyed by
// the retired v1–v3 schedule — what an eavesdropper of a legacy session
// holds. The server no longer speaks that protocol, so the recorder
// plays both ends: a plaintext v3 HELLO, the legacy CHALLENGE, then a
// sealed HELLO-ACK, one exchange and a BYE in v3 envelopes, sealed under
// securelink.Pair(legacySessionSecret(master, nonces)).
func RecordLegacySession(master []byte, seed int64) (*Recording, error) {
	hello := &wire.Hello{Version: 3, Seed: seed}
	var serverNonce [16]byte
	if _, err := rand.Read(hello.Nonce[:]); err != nil {
		return nil, err
	}
	if _, err := rand.Read(serverNonce[:]); err != nil {
		return nil, err
	}
	nonces := append(append([]byte(nil), hello.Nonce[:]...), serverNonce[:]...)
	shield, prog, err := securelink.Pair(legacySessionSecret(master, nonces))
	if err != nil {
		return nil, err
	}
	exchange := &wire.ExchangeResp{Response: []byte("patient-data"), ResponseCommand: "data-response"}
	return &Recording{
		ClientFrames: [][]byte{
			hello.Encode(),
			prog.Seal(wire.EncodeEnvelopeV3(1, 0, 0, &wire.ExchangeReq{Cmd: wire.CmdInterrogate})),
			prog.Seal(wire.EncodeEnvelopeV3(2, 0, 1, &wire.Bye{})),
		},
		ServerFrames: [][]byte{
			legacyChallenge(serverNonce),
			shield.Seal((&wire.HelloAck{Version: 3, SessionID: 1}).Encode()),
			shield.Seal(wire.EncodeEnvelopeV3(1, 0, 1, exchange)),
			shield.Seal(wire.EncodeEnvelopeV3(2, 0, 2, &wire.Bye{})),
		},
	}, nil
}

// ErrNotRecovered reports that the offline attack failed: no recorded
// sealed frame opened under any key the attacker could derive.
var ErrNotRecovered = errors.New("sectest: no recorded frame decrypted")

// RecoverSession mounts the retroactive-compromise attack: given a full
// session transcript and the long-term master secret (leaked AFTER the
// recording was made), derive the session keys and decrypt the traffic.
//
// Against the legacy handshake this attack succeeds: both handshake
// nonces travel in plaintext, and the legacy derivation over them is all
// there is. Against the v4 AKE the schedule also mixes an X25519
// ephemeral-ephemeral secret (or a prior session's resumption secret),
// neither of which the transcript or the master reveals — the attacker
// runs its best derivations and every frame stays sealed.
func RecoverSession(master []byte, rec *Recording) ([][]byte, error) {
	if len(rec.ClientFrames) == 0 || len(rec.ServerFrames) == 0 {
		return nil, errors.New("sectest: transcript too short to attack")
	}
	hm, err := wire.Decode(rec.ClientFrames[0])
	if err != nil {
		return nil, fmt.Errorf("sectest: first client frame: %w", err)
	}
	hello, ok := hm.(*wire.Hello)
	if !ok {
		return nil, fmt.Errorf("sectest: first client frame is %T, want HELLO", hm)
	}
	first := rec.ServerFrames[0]
	if len(first) == 17 && first[0] == legacyChallengeKind {
		// Legacy derivation: everything it needs is on the wire.
		nonces := append(append([]byte(nil), hello.Nonce[:]...), first[1:]...)
		return openAll(legacySessionSecret(master, nonces), rec)
	}
	cm, err := wire.Decode(first)
	if err != nil {
		return nil, fmt.Errorf("sectest: first server frame: %w", err)
	}
	ch, ok := cm.(*wire.Challenge2)
	if !ok {
		return nil, fmt.Errorf("sectest: first server frame is %T, want a challenge", cm)
	}
	// v4: run the real schedule with every input the attacker holds
	// (transcript + master), then fall back to the legacy derivation in
	// case the session secret ever regresses to nonce-only.
	sched := securelink.NewHandshake(securelink.HandshakeLabelV4)
	sched.MixHash(hello.TranscriptBytes())
	sched.MixHash(ch.Encode())
	sched.MixKey(master)
	if plain, err := openAll(sched.SessionSecret(), rec); err == nil {
		return plain, nil
	}
	// A second guess: maybe the missing DH/resumption input is the
	// all-zero block a broken implementation would mix.
	sched2 := securelink.NewHandshake(securelink.HandshakeLabelV4)
	sched2.MixHash(hello.TranscriptBytes())
	sched2.MixHash(ch.Encode())
	sched2.MixKey(master)
	sched2.MixKey(make([]byte, 32))
	if plain, err := openAll(sched2.SessionSecret(), rec); err == nil {
		return plain, nil
	}
	nonces := append(append([]byte(nil), hello.Nonce[:]...), ch.ServerNonce[:]...)
	return openAll(legacySessionSecret(master, nonces), rec)
}

// openAll rebuilds both link directions from a candidate session secret
// and tries every recorded sealed frame, in recorded order (so sequence
// numbers line up if the key is right). Frame 0 of each direction is the
// plaintext handshake and is skipped.
func openAll(sessionSecret []byte, rec *Recording) ([][]byte, error) {
	shield, prog, err := securelink.Pair(sessionSecret)
	if err != nil {
		return nil, err
	}
	var plain [][]byte
	for _, f := range rec.ServerFrames[1:] {
		if p, err := prog.Open(f); err == nil {
			plain = append(plain, p)
		}
	}
	for _, f := range rec.ClientFrames[1:] {
		if p, err := shield.Open(f); err == nil {
			plain = append(plain, p)
		}
	}
	if len(plain) == 0 {
		return nil, ErrNotRecovered
	}
	return plain, nil
}

// V4Handshake is the outcome of one hand-driven v4 handshake.
type V4Handshake struct {
	Link      *securelink.Link
	Version   uint8
	SessionID uint64
	Ticket    []byte // fresh single-use resumption ticket from the ack
	RMS       []byte // the resumption secret that ticket will resume with
	Resumed   bool   // the server resumed from the ticket we presented
}

// RunV4Handshake drives the client side of the v4 stream handshake by
// hand — the attacker-steerable twin of the production client. ticket
// and rms optionally present resumption state; rms == nil models a thief
// holding only the ticket bytes, who must guess the resumption secret
// (the guess is the all-zero block). Returns an error whenever the
// handshake cannot complete — in particular when the sealed HELLO-ACK
// does not open under the keys this end derived.
func RunV4Handshake(conn net.Conn, master []byte, ticket, rms []byte, seed int64) (*V4Handshake, error) {
	eph, err := securelink.NewEphemeral()
	if err != nil {
		return nil, err
	}
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, err
	}
	hello := &wire.Hello{Version: 4, Nonce: nonce, Seed: seed, KeyShare: eph.Public(), Ticket: ticket}
	if err := wire.WriteFrame(conn, hello.Encode()); err != nil {
		return nil, err
	}
	transcript := hello.TranscriptBytes()

	raw, err := wire.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	m, err := wire.Decode(raw)
	if err != nil {
		return nil, err
	}
	ch, ok := m.(*wire.Challenge2)
	if !ok {
		if e, isErr := m.(*wire.Error); isErr {
			return nil, fmt.Errorf("sectest: server refused: %s", e.Msg)
		}
		return nil, fmt.Errorf("sectest: server answered %T, want CHALLENGE2", m)
	}

	sched := securelink.NewHandshake(securelink.HandshakeLabelV4)
	sched.MixHash(transcript)
	sched.MixHash(ch.Encode())
	sched.MixKey(master)
	if ch.Resumed {
		if rms == nil {
			rms = make([]byte, 32) // the thief's best guess
		}
		sched.MixKey(rms)
	} else {
		dh, err := eph.Shared(ch.KeyShare)
		if err != nil {
			return nil, fmt.Errorf("sectest: server key share: %w", err)
		}
		sched.MixKey(dh)
	}
	_, link, err := securelink.Pair(sched.SessionSecret())
	if err != nil {
		return nil, err
	}

	raw, err = wire.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	plain, err := link.Open(raw)
	if err != nil {
		return nil, fmt.Errorf("sectest: sealed ack did not open: %w", err)
	}
	am, err := wire.Decode(plain)
	if err != nil {
		return nil, err
	}
	ack, ok := am.(*wire.HelloAck)
	if !ok {
		return nil, fmt.Errorf("sectest: sealed ack decoded to %T", am)
	}
	return &V4Handshake{
		Link:      link,
		Version:   ack.Version,
		SessionID: ack.SessionID,
		Ticket:    ack.Ticket,
		RMS:       sched.ResumptionSecret(),
		Resumed:   ch.Resumed,
	}, nil
}

// Rewrite inspects one decoded frame in flight and returns the frame to
// forward instead (return the input unchanged to pass it through).
type Rewrite func(wire.Message, []byte) []byte

// RelayFrames is a man-in-the-middle relay between two stream ends: it
// re-frames each direction and passes every frame through the matching
// rewrite hook. Sealed frames do not decode; they are forwarded as-is
// with a nil Message. The relay runs until either side closes.
func RelayFrames(clientSide, serverSide net.Conn, c2s, s2c Rewrite) {
	pump := func(src, dst net.Conn, rw Rewrite) {
		defer dst.Close()
		for {
			f, err := wire.ReadFrame(src)
			if err != nil {
				return
			}
			if rw != nil {
				m, _ := wire.Decode(f) // nil for sealed frames
				f = rw(m, f)
			}
			if err := wire.WriteFrame(dst, f); err != nil {
				return
			}
		}
	}
	go pump(clientSide, serverSide, c2s)
	go pump(serverSide, clientSide, s2c)
}
