// Package shieldd is the concurrent shield session server: a long-lived
// daemon that owns a pool of recycled testbed scenarios (one per active
// session) and serves the securelink-sealed wire protocol of
// internal/wire over two transport families — streams (TCP from
// cmd/shieldd, or an in-process net.Pipe for tests and embedded use)
// and datagrams (UDP via ServePacket, or any net.PacketConn such as the
// internal/faultnet impairment network), where loss, duplication, and
// reordering are handled by client retransmission, the securelink
// receive window, and a per-session request ledger.
//
// Every session is an independent simulated world: its own medium,
// devices, and random streams, all derived from the session seed the
// client announces in HELLO. The scenario pool makes sessions cheap
// (recycling is an RNG re-derivation, not a rebuild) without making them
// observable to each other: a session's EavesdropperBER/CancellationDB
// stream depends only on its seed and request sequence, never on which
// pooled scenario served it, which goroutine ran it, or what the server
// did before — the same determinism contract as the PR 1 parallel
// experiment runner, extended to a network service.
//
// One wire protocol is served (wire.Version). A session multiplexes
// over one connection: every sealed frame carries a request ID, the
// client pipelines requests, and the server completes them out of order
// under a bounded in-flight window. Scenario-mutating requests
// (EXCHANGE, BATCH-EXCHANGE, ATTACK) are executed strictly in request-ID
// order by a per-session executor — the request ledger holds arrivals
// above a loss-induced gap, so one lost datagram delays only itself, and the
// deterministic (seed, request sequence) → results contract holds under
// pipelining — while PING, STATUS, STATUS-METRICS, and EXPERIMENT
// requests complete independently and may overtake them; EXPERIMENT
// requests stream incremental EXPERIMENT-PROGRESS frames while they run.
// See DESIGN.md "Selective repeat & streaming experiments".
//
// The handshake is a forward-secret X25519+PSK key exchange bound to the
// handshake transcript (securelink.Handshake), and every session mints a
// single-use resumption ticket; a reconnecting client redeems it to skip
// the key exchange and, from its issuing address, the datagram cookie
// round. A HELLO announcing an older version is refused with a plaintext
// CodeUnsupportedVersion error. See DESIGN.md "Handshake (wire v4)".
package shieldd

import (
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"heartshield/internal/adversary"
	"heartshield/internal/experiments"
	"heartshield/internal/imd"
	"heartshield/internal/metrics"
	"heartshield/internal/securelink"
	"heartshield/internal/shieldcore"
	"heartshield/internal/testbed"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// Session-link hardening parameters (both ends must agree; the client in
// this package uses the same constants).
const (
	// sessionRekeyEvery ratchets each direction's AEAD key every this many
	// messages, so a long-lived session link never exhausts one key.
	sessionRekeyEvery = 512
	// sessionWindow tolerates this much sequence reordering on stream
	// sessions; TCP delivers in order, so it is never hit there, but
	// running with it on keeps the code path live end-to-end. Datagram
	// sessions use the larger dgramWindow (transport.go), where
	// reordering is real.
	sessionWindow = 8
	// maxHelloFrame bounds the plaintext HELLO (~50 bytes of fixed fields,
	// a 32-byte key share and an optional ~100-byte resumption ticket); an
	// unauthenticated peer cannot make the server allocate a larger buffer.
	maxHelloFrame = 512
	// handshakeTimeout bounds how long an unauthenticated connection may
	// hold a goroutine before sending its HELLO.
	handshakeTimeout = 10 * time.Second
	// cookieRotateEvery is the handshake-cookie secret rotation interval:
	// a minted cookie stays valid for one to two intervals (current +
	// previous epoch), long enough for any sane handshake retry schedule,
	// short enough that a harvested cookie is not a durable capability.
	cookieRotateEvery = 30 * time.Second
	// defaultBusyRetryAfter is the retry-after hint carried in BUSY
	// responses when the config does not set one.
	defaultBusyRetryAfter = 250 * time.Millisecond
	// defaultTicketLifetime bounds resumption tickets when the config
	// does not set one: long enough to resume after an idle reap, short
	// enough that a ticket is not a durable capability. The ticket
	// sealing key rotates on the same period, so any unexpired ticket is
	// at most one rotation old and still opens.
	defaultTicketLifetime = 5 * time.Minute
)

// ServerConfig configures a session server.
type ServerConfig struct {
	// Secret is the provisioned master pairing secret; per-session keys
	// are derived from it and the client's HELLO nonce. Required.
	Secret []byte
	// MaxSessions bounds concurrently active sessions; what happens to
	// further handshakes is AdmissionWait's choice (by default they queue
	// until a slot frees). Default 64.
	MaxSessions int
	// ExperimentWorkers caps the Workers value of EXPERIMENT frames (the
	// deterministic per-point fan-out inside one experiment). Default 1.
	ExperimentWorkers int
	// MaxExtraIMDs caps the batched multi-IMD size a client may request.
	// Default 8.
	MaxExtraIMDs int
	// PoolPerShape bounds idle scenarios retained per scenario shape.
	// Default 16.
	PoolPerShape int
	// InFlightPerSession bounds how many pipelined requests one
	// session may have outstanding; further frames are not read until a
	// slot frees (transport backpressure). Default 16.
	InFlightPerSession int
	// IdleTimeout, when positive, reaps sessions with no traffic and no
	// in-flight work for this long: the connection is closed and the
	// scenario returns to the pool. Clients can hold a session open with
	// PING keepalives and reconnect with a fresh handshake after a reap.
	// Zero disables reaping.
	IdleTimeout time.Duration

	// AdmissionWait selects what happens to a handshake when every
	// session slot is taken. Zero (the default) preserves the historical
	// behaviour: the handshake queues until a slot frees. Negative sheds
	// immediately with a BUSY response. Positive waits up to that long
	// for a slot before shedding.
	AdmissionWait time.Duration
	// HandshakeRate, when positive, rate-limits datagram handshakes per
	// source address to this many per second (with HandshakeBurst burst
	// capacity). Only cookie-verified addresses are metered, so the
	// limiter state cannot be grown by spoofed traffic. Zero disables
	// per-peer rate limiting.
	HandshakeRate float64
	// HandshakeBurst is the per-peer token-bucket burst capacity.
	// Default 4 (when HandshakeRate is set).
	HandshakeBurst int
	// MaxInFlightGlobal, when positive, bounds scenario-mutating and
	// experiment work in flight across ALL sessions; over-budget
	// requests are answered BUSY instead of queueing. Zero means
	// unlimited (per-session windows still apply).
	MaxInFlightGlobal int
	// BusyRetryAfter is the retry-after hint carried in BUSY responses.
	// Default 250ms.
	BusyRetryAfter time.Duration
	// TicketLifetime bounds how long a resumption ticket stays
	// redeemable. Default 5m.
	TicketLifetime time.Duration
}

// Server is a concurrent shield session server.
type Server struct {
	cfg  ServerConfig
	pool *scenarioPool
	sem  chan struct{}
	// gsem, when non-nil, bounds scenario/experiment work in flight
	// across all sessions (MaxInFlightGlobal); acquisition is always
	// non-blocking — over-budget work is shed with BUSY, never queued.
	gsem chan struct{}
	// cookies mints and verifies the stateless handshake cookies that
	// gate datagram session state: no goroutine, key derivation, or peer
	// registration happens for a source address that has not echoed a
	// cookie, so a spoofed-source HELLO flood costs the server one HMAC
	// and one small reply datagram per packet and zero state.
	cookies *securelink.CookieSource
	// tickets mints and redeems the single-use resumption tickets: a
	// resumption secret sealed under a rotating server key, handed out in
	// every HELLO-ACK and redeemable once for a one-round-trip
	// reconnect.
	tickets *securelink.TicketSource
	// hsLimiter, when non-nil, rate-limits cookie-verified handshakes
	// per source address.
	hsLimiter *rateLimiter
	// dl is the most recent ServePacket listener, for peer-table
	// introspection (DatagramPeers).
	dl atomic.Pointer[dgram.Listener]

	nextSession atomic.Uint64
	met         metrics.Server
	// reg tracks live sessions' counters so Metrics() can aggregate
	// in-flight gauges without waiting for sessions to end; the sweep is
	// atomic loads under a read lock, allocation-free at any scale.
	reg *metrics.Registry
}

// NewServer builds a server from the config, applying defaults.
func NewServer(cfg ServerConfig) (*Server, error) {
	if len(cfg.Secret) == 0 {
		return nil, fmt.Errorf("shieldd: ServerConfig.Secret is required")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.ExperimentWorkers <= 0 {
		cfg.ExperimentWorkers = 1
	}
	if cfg.MaxExtraIMDs <= 0 {
		cfg.MaxExtraIMDs = 8
	}
	if cfg.InFlightPerSession <= 0 {
		cfg.InFlightPerSession = 16
	}
	if cfg.BusyRetryAfter <= 0 {
		cfg.BusyRetryAfter = defaultBusyRetryAfter
	}
	if cfg.HandshakeBurst <= 0 {
		cfg.HandshakeBurst = 4
	}
	if cfg.TicketLifetime <= 0 {
		cfg.TicketLifetime = defaultTicketLifetime
	}
	cookies, err := securelink.NewCookieSource(cookieRotateEvery)
	if err != nil {
		return nil, fmt.Errorf("shieldd: %w", err)
	}
	tickets, err := securelink.NewTicketSource(cfg.TicketLifetime, cfg.TicketLifetime)
	if err != nil {
		return nil, fmt.Errorf("shieldd: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		pool:    newScenarioPool(cfg.PoolPerShape),
		sem:     make(chan struct{}, cfg.MaxSessions),
		cookies: cookies,
		tickets: tickets,
		reg:     metrics.NewRegistry(),
	}
	if cfg.MaxInFlightGlobal > 0 {
		s.gsem = make(chan struct{}, cfg.MaxInFlightGlobal)
	}
	if cfg.HandshakeRate > 0 {
		s.hsLimiter = newRateLimiter(cfg.HandshakeRate, cfg.HandshakeBurst)
	}
	return s, nil
}

// retryAfterMillis is the wire form of the BUSY retry-after hint.
func (s *Server) retryAfterMillis() uint32 {
	return uint32(s.cfg.BusyRetryAfter / time.Millisecond)
}

// admitSession takes a session slot under the AdmissionWait policy:
// block (zero), shed immediately (negative), or wait-then-shed
// (positive). It reports whether a slot was taken.
func (s *Server) admitSession() bool {
	switch {
	case s.cfg.AdmissionWait == 0:
		s.sem <- struct{}{}
		return true
	case s.cfg.AdmissionWait < 0:
		select {
		case s.sem <- struct{}{}:
			return true
		default:
			return false
		}
	default:
		select {
		case s.sem <- struct{}{}:
			return true
		default:
		}
		t := time.NewTimer(s.cfg.AdmissionWait)
		defer t.Stop()
		select {
		case s.sem <- struct{}{}:
			return true
		case <-t.C:
			return false
		}
	}
}

// acquireWork takes a slot of the global in-flight budget; it never
// blocks — over-budget work is shed, not queued. Always true when
// MaxInFlightGlobal is unset.
func (s *Server) acquireWork() bool {
	if s.gsem == nil {
		return true
	}
	select {
	case s.gsem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) releaseWork() {
	if s.gsem != nil {
		<-s.gsem
	}
}

// shedRequest counts one in-session request answered BUSY.
func (s *Server) shedRequest(sess *session) *wire.Busy {
	sess.met.Shed.Add(1)
	s.met.ShedRequests.Add(1)
	return &wire.Busy{RetryAfterMillis: s.retryAfterMillis()}
}

// Serve accepts connections until the listener is closed, running one
// session per connection. It returns the listener's Accept error.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

// offer is the server's half of one accepted HELLO: the scenario the
// session will run, the encoded CHALLENGE2 to send in plaintext, the
// session link, and the encoded HELLO-ACK to seal behind it.
type offer struct {
	opt       testbed.Options
	challenge []byte
	link      *securelink.Link
	id        uint64
	ack       []byte
}

// negotiate answers one HELLO: the version check, the scenario options,
// the key agreement, and the session ID. A HELLO the server cannot serve
// — an older wire version, out-of-range scenario options, a malformed
// key share — is handed to refuse as a plaintext Error; the version and
// option checks run before any ticket is redeemed or minted. ok is false
// when the handshake must end (also, silently, when entropy runs out).
//
// The key agreement is a transcript-bound HKDF schedule over the HELLO
// and CHALLENGE2 bytes, mixing the master PSK with either the X25519
// ephemeral-ephemeral shared secret or, when the HELLO carries a
// redeemable ticket, the previous session's resumption secret (skipping
// the DH for a one-round-trip reconnect). The fresh server nonce and
// ephemeral mean a recorded session's sealed frames can never open in a
// new one: per-message replay protection extends to whole-session
// replay. A fresh single-use ticket bound to addr is minted for every
// handshake, and the link gets the transport's receive window.
func (s *Server) negotiate(hello *wire.Hello, addr string, window int, refuse func(*wire.Error)) (o offer, ok bool) {
	if hello.Version < wire.Version {
		refuse(&wire.Error{Code: wire.CodeUnsupportedVersion,
			Msg: fmt.Sprintf("wire protocol v%d is not supported; this server speaks v%d", hello.Version, wire.Version)})
		return o, false
	}
	opt, err := s.scenarioOptions(hello)
	if err != nil {
		refuse(&wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
		return o, false
	}
	var challenge wire.Challenge2
	if _, err := rand.Read(challenge.ServerNonce[:]); err != nil {
		return o, false
	}
	// A presented ticket is redeemed (consumed) even when the handshake
	// later fails — single use means single attempt. An expired or
	// replayed ticket silently falls back to the full AKE; the client
	// learns which path ran from Challenge2.Resumed.
	var rms []byte
	if len(hello.Ticket) > 0 {
		rms, _ = s.tickets.Redeem(hello.Ticket)
	}
	var dh []byte
	if rms != nil {
		challenge.Resumed = true
	} else {
		if len(hello.KeyShare) != securelink.KeyShareLen {
			refuse(&wire.Error{Code: wire.CodeBadRequest, Msg: "wire protocol v4 requires an X25519 key share"})
			return o, false
		}
		eph, err := securelink.NewEphemeral()
		if err != nil {
			return o, false
		}
		challenge.KeyShare = eph.Public()
		if dh, err = eph.Shared(hello.KeyShare); err != nil {
			refuse(&wire.Error{Code: wire.CodeBadRequest, Msg: "invalid X25519 key share"})
			return o, false
		}
	}
	enc := challenge.Encode()
	sched := securelink.NewHandshake(securelink.HandshakeLabelV4)
	sched.MixHash(hello.TranscriptBytes())
	sched.MixHash(enc)
	sched.MixKey(s.cfg.Secret)
	if rms != nil {
		sched.MixKey(rms)
	} else {
		sched.MixKey(dh)
	}
	link, _, err := securelink.Pair(sched.SessionSecret())
	if err != nil {
		return o, false
	}
	link.SetWindow(window)
	link.EnableRekey(sessionRekeyEvery)
	// A mint failure only costs the client its next resumption.
	ticket, _ := s.tickets.Mint(sched.ResumptionSecret(), addr)
	id := s.nextSession.Add(1)
	ack := &wire.HelloAck{Version: wire.Version, SessionID: id, Ticket: ticket}
	return offer{opt: opt, challenge: enc, link: link, id: id, ack: ack.Encode()}, true
}

// commit turns an authenticated handshake into a live session. The
// caller has opened first, the client's first sealed frame, under
// o.link, so the ID handed out in the ack now becomes a counted session. Admission runs
// under the AdmissionWait policy: the default blocks until a session
// slot frees (bounded concurrency); a shedding policy answers with a
// sealed BUSY bound to the first request's ID, so the client's pending
// call fails fast instead of timing out, and commit returns a nil
// session. Otherwise the handshake deadline is lifted (experiment
// requests may legitimately run for minutes) and the caller must run
// end when the session is over.
func (s *Server) commit(tc transportConn, o offer, first []byte) (sess *session, end func()) {
	if !s.admitSession() {
		s.met.ShedHandshakes.Add(1)
		if id, _, _, _, err := wire.DecodeEnvelopeV3(first); err == nil {
			busy := &wire.Busy{RetryAfterMillis: s.retryAfterMillis()}
			_ = tc.writeFrame(o.link.Seal(wire.EncodeEnvelopeV3(id, 0, 0, busy)))
		}
		return nil, nil
	}
	s.met.TotalSessions.Add(1)
	s.met.ActiveSessions.Add(1)
	sess = s.newSession(o.opt)
	sess.id = o.id
	sess.link = o.link
	s.reg.Register(o.id, &sess.met)
	_ = tc.setReadDeadline(time.Time{})
	return sess, func() {
		s.absorbLinkStats(sess.link)
		s.pool.put(sess.sc)
		s.reg.Unregister(sess.id)
		s.met.ActiveSessions.Add(-1)
		<-s.sem
	}
}

// ServeConn runs one session on an established transport (TCP connection
// or one end of a net.Pipe) and blocks until the session ends. The
// connection is always closed on return.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()

	// Pre-authentication hardening: the peer has proven nothing yet, so
	// it gets a tiny frame budget and a deadline — an unauthenticated
	// connection can neither make the server allocate a MaxFrame buffer
	// nor pin a goroutine indefinitely.
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))

	// HELLO travels in plaintext: it carries the public nonce and key
	// share both ends feed into the session key schedule.
	raw, err := wire.ReadFrameLimit(conn, maxHelloFrame)
	if err != nil {
		return
	}
	msg, err := wire.Decode(raw)
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		return
	}
	o, ok := s.negotiate(hello, conn.RemoteAddr().String(), sessionWindow, func(e *wire.Error) {
		_ = wire.WriteFrame(conn, e.Encode())
	})
	if !ok {
		return
	}
	if err := wire.WriteFrame(conn, o.challenge); err != nil {
		return
	}
	if err := wire.WriteFrame(conn, o.link.Seal(o.ack)); err != nil {
		return
	}

	// The peer has still proven nothing: read its first sealed frame under
	// the handshake deadline, and only a successful open commits a session
	// slot and a scenario. An unauthenticated connection can therefore
	// exhaust neither.
	raw, err = wire.ReadFrame(conn)
	if err != nil {
		return
	}
	plain, err := o.link.Open(raw)
	if err != nil {
		return
	}
	tc := &streamConn{c: conn}
	sess, end := s.commit(tc, o, plain)
	if sess == nil {
		return
	}
	defer end()
	s.serveSession(tc, sess, plain)
}

// ServePacket serves datagram sessions from a packet socket (UDP, or an
// in-process faultnet endpoint) until the socket is closed: one session
// per remote address, each beginning with a plaintext HELLO datagram.
// It returns the socket's read error.
func (s *Server) ServePacket(pc net.PacketConn) error {
	l := dgram.ListenGated(pc, s.handshakeGate)
	s.dl.Store(l)
	defer l.Close()
	for {
		peer, err := l.Accept()
		if err != nil {
			return err
		}
		go s.servePeer(peer)
	}
}

// DatagramPeers reports the number of registered datagram peers on the
// most recent ServePacket listener (zero when none is running) — the
// per-address session state a handshake flood would have to grow, and
// therefore the quantity the chaos tests pin at zero for cookie-less
// floods.
func (s *Server) DatagramPeers() int {
	if l := s.dl.Load(); l != nil {
		return l.PeerCount()
	}
	return 0
}

// handshakeGate is the stateless admission gate consulted by the
// datagram listener for every handshake datagram from an unknown source
// address, BEFORE any per-peer state exists. The full ladder:
//
//  1. the datagram must decode as a HELLO (anything else is dropped
//     silently — no reflection surface for garbage);
//  2. a HELLO without a cookie is answered with a freshly minted one
//     (keyed MAC over the source address and the client's nonce) and
//     NOT admitted — this is the stateless round trip that proves the
//     peer can receive at its claimed source address;
//  3. a HELLO with an invalid cookie (spoofed, corrupted, or two
//     rotations stale) is answered with a fresh cookie so a legitimate
//     client with a stale cookie recovers in one round trip;
//  4. a cookie-verified HELLO passes the per-peer rate limiter (only
//     verified addresses allocate limiter entries) — over-rate peers
//     are dropped silently, they already have a valid cookie to retry
//     with;
//  5. finally, under a shedding admission policy, a HELLO that would
//     only queue behind a full session table is refused with a
//     plaintext BUSY carrying the retry-after hint.
//
// Every reply is at most a few dozen bytes to a cookie-carrying (and
// for BUSY, cookie-verified) source, so the gate amplifies nothing and
// commits no state: the cost of a spoofed flood is one HMAC per packet.
func (s *Server) handshakeGate(addr net.Addr, payload []byte) (accept bool, reply []byte) {
	msg, err := wire.Decode(payload)
	if err != nil {
		return false, nil
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		return false, nil
	}
	// A resumption ticket issued to exactly this source address stands
	// in for the cookie round: it proves a prior completed handshake from
	// the address, which is strictly stronger reachability proof than a
	// cookie echo, so resumption stays one round trip. Peek consumes
	// nothing — servePeer redeems. Any mismatch (moved address, expired,
	// already used) falls through to the normal cookie ladder; the client
	// still resumes its keys, one round trip later.
	if len(hello.Cookie) == 0 && len(hello.Ticket) > 0 && s.tickets.Peek(hello.Ticket, addr.String()) {
		if s.hsLimiter != nil && !s.hsLimiter.allow(addr.String()) {
			s.met.RateLimited.Add(1)
			return false, nil
		}
		if s.cfg.AdmissionWait != 0 && len(s.sem) == cap(s.sem) {
			s.met.ShedHandshakes.Add(1)
			return false, (&wire.Busy{RetryAfterMillis: s.retryAfterMillis()}).Encode()
		}
		return true, nil
	}
	if len(hello.Cookie) == 0 {
		s.met.CookiesSent.Add(1)
		return false, (&wire.Cookie{Cookie: s.cookies.Mint(addr.String(), hello.Nonce[:])}).Encode()
	}
	if !s.cookies.Verify(addr.String(), hello.Nonce[:], hello.Cookie) {
		s.met.CookieRejects.Add(1)
		s.met.CookiesSent.Add(1)
		return false, (&wire.Cookie{Cookie: s.cookies.Mint(addr.String(), hello.Nonce[:])}).Encode()
	}
	if s.hsLimiter != nil && !s.hsLimiter.allow(addr.String()) {
		s.met.RateLimited.Add(1)
		return false, nil
	}
	if s.cfg.AdmissionWait != 0 && len(s.sem) == cap(s.sem) {
		s.met.ShedHandshakes.Add(1)
		return false, (&wire.Busy{RetryAfterMillis: s.retryAfterMillis()}).Encode()
	}
	return true, nil
}

// servePeer runs one datagram session. The handshake mirrors ServeConn
// — HELLO → CHALLENGE2 → sealed HELLO-ACK → first authenticated sealed
// frame commits a session slot — with the lossy-transport differences:
// a retransmitted HELLO re-sends the same CHALLENGE2 (and a re-sealed
// ACK) instead of confusing the session, and undecryptable datagrams
// are dropped instead of ending the handshake.
//
// Pre-authentication hardening: a peer only reaches this point after
// its HELLO passed handshakeGate — it echoed a valid stateless cookie,
// proving it can receive at its source address, and passed the per-peer
// rate limit. A spoofed-source flood therefore never starts a handshake
// goroutine or derives a key; what floods can still reach here is
// bounded by real, receive-capable addresses, each under the handshake
// deadline.
func (s *Server) servePeer(peer *dgram.PeerConn) {
	defer peer.Close()
	_ = peer.SetReadDeadline(time.Now().Add(handshakeTimeout))

	// Phase 1: a valid HELLO (the listener guarantees the first datagram
	// was a handshake frame, but not that it decodes).
	var hello *wire.Hello
	for hello == nil {
		kind, payload, err := peer.ReadFrame()
		if err != nil {
			return
		}
		if kind != dgram.KindHandshake {
			continue
		}
		msg, err := wire.Decode(payload)
		if err != nil {
			continue
		}
		hello, _ = msg.(*wire.Hello)
	}
	o, ok := s.negotiate(hello, peer.RemoteAddr().String(), dgramWindow, func(e *wire.Error) {
		_ = peer.WriteFrame(dgram.KindHandshake, e.Encode())
	})
	if !ok {
		return
	}
	// sendChallenge re-seals the ACK on every (re)send: the client's
	// receive window accepts whichever copy lands first and replay-drops
	// the rest. The challenge bytes themselves are fixed — they entered
	// the handshake transcript, so every retransmit must be
	// byte-identical.
	sendChallenge := func() bool {
		if err := peer.WriteFrame(dgram.KindHandshake, o.challenge); err != nil {
			return false
		}
		return peer.WriteFrame(dgram.KindSealed, o.link.Seal(o.ack)) == nil
	}
	if !sendChallenge() {
		return
	}

	// Phase 2: the first frame that opens under the session keys commits
	// the session. A duplicate HELLO (same client nonce) means the
	// client missed the challenge — answer it again with the SAME
	// nonce. A HELLO with a DIFFERENT nonce is a new client instance on
	// the same address (the old one died with its BYE in flight):
	// abandon this pending session so the newcomer's next retransmit
	// starts a fresh one, instead of stalling it until the handshake
	// deadline.
	var plain []byte
	for plain == nil {
		kind, payload, err := peer.ReadFrame()
		if err != nil {
			return
		}
		if kind == dgram.KindHandshake {
			if msg, err := wire.Decode(payload); err == nil {
				if h, ok := msg.(*wire.Hello); ok {
					if h.Nonce != hello.Nonce {
						return
					}
					if !sendChallenge() {
						return
					}
				}
			}
			continue
		}
		p, err := o.link.Open(payload)
		if err != nil {
			continue // lost to loss/corruption; the client retransmits
		}
		plain = p
	}

	// Under a shedding admission policy the gate already refuses HELLOs
	// while the table is full, so a shed in commit only catches the race
	// where the table filled between gate and commit.
	tc := &packetTC{fc: peer}
	sess, end := s.commit(tc, o, plain)
	if sess == nil {
		return
	}
	defer end()
	origNonce := hello.Nonce
	sess.takeover = func(payload []byte) bool {
		return s.sessionTakeover(peer, origNonce, payload)
	}
	s.serveSession(tc, sess, plain)
}

// sessionTakeover classifies a handshake datagram that reached an
// ESTABLISHED datagram session and reports whether the session should
// end to free its address. A HELLO with this session's own nonce is a
// late retransmit: ignore it. A HELLO with a different nonce is a new
// client instance on the same source address (the old one died with its
// BYE lost to the network) — but the address is spoofable, so handover
// demands the same proof the admission gate does: a cookie-less HELLO
// is answered with a minted cookie, and only a cookie-VERIFIED new
// nonce ends the session (an off-path attacker can spoof the address
// but cannot receive the cookie, so established sessions cannot be
// reset blind). The ended session's peer slot frees, and the newcomer's
// HELLO retransmit reaches the admission gate to start fresh.
func (s *Server) sessionTakeover(peer *dgram.PeerConn, origNonce [16]byte, payload []byte) bool {
	msg, err := wire.Decode(payload)
	if err != nil {
		return false
	}
	h, ok := msg.(*wire.Hello)
	if !ok || h.Nonce == origNonce {
		return false
	}
	addr := peer.RemoteAddr().String()
	// A valid resumption ticket issued to this exact address is the same
	// proof-of-receipt the cookie round would establish (the admission
	// gate accepts it the same way), so a resuming client instance takes
	// the address over without a cookie round trip.
	if len(h.Cookie) == 0 && len(h.Ticket) > 0 && s.tickets.Peek(h.Ticket, addr) {
		return true
	}
	if len(h.Cookie) == 0 {
		s.met.CookiesSent.Add(1)
		_ = peer.WriteFrame(dgram.KindHandshake,
			(&wire.Cookie{Cookie: s.cookies.Mint(addr, h.Nonce[:])}).Encode())
		return false
	}
	if !s.cookies.Verify(addr, h.Nonce[:], h.Cookie) {
		s.met.CookieRejects.Add(1)
		return false
	}
	return true
}

// absorbLinkStats folds a finished session's link traffic into the
// server-wide metrics.
func (s *Server) absorbLinkStats(link *securelink.Link) {
	st := link.Stats()
	s.met.BytesSealed.Add(st.BytesSealed)
	s.met.BytesOpened.Add(st.BytesOpened)
	s.met.Rekeys.Add(st.Rekeys)
	s.met.ReplayDrops.Add(st.ReplayDrops)
	s.met.LateDrops.Add(st.LateDrops)
	s.met.WindowAccepts.Add(st.WindowAccepts)
}

// startReaper watches a session for idleness: when busy() is false and
// no frame has arrived for idle, it closes the transport (waking the
// blocked reader; the session defers return the scenario to the pool)
// and counts the reap. A ticker-based watcher — deliberately not a read
// deadline, which could fire mid-frame and desynchronize the framing.
// The returned stop function must be called at session end.
func (s *Server) startReaper(tc transportConn, lastActivity *atomic.Int64, busy func() bool) (stop func()) {
	if s.cfg.IdleTimeout <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(s.cfg.IdleTimeout / 4)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				idleFor := time.Duration(time.Now().UnixNano() - lastActivity.Load())
				if !busy() && idleFor >= s.cfg.IdleTimeout {
					// Count the reap only once the transport is closed:
					// whoever observes the counter may rely on the
					// session being gone.
					tc.close()
					s.met.ReapedSessions.Add(1)
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// envelope pairs a request ID with the message that answers (or asks)
// it, plus its frame roles: partial marks a streamed non-final
// response (EnvPartial on the wire, never recorded in the request
// ledger), and last marks the final frame of the session (the BYE
// response) — after flushing it the writer closes the transport to
// wake the reader into teardown.
type envelope struct {
	id      uint64
	msg     wire.Message
	partial bool
	last    bool
}

// serveSession is the session loop. Three roles share the connection:
//
//   - this goroutine (the reader) owns link.Open, claims request IDs in
//     the session's ledger, and enforces the in-flight window;
//   - a per-session executor goroutine runs scenario-mutating requests
//     one at a time in request-ID order (the ledger restores ID order
//     under datagram loss/reordering, which is what makes pipelined
//     submission deterministic);
//   - a writer goroutine owns link.Seal and conn writes, so responses
//     from the executor, experiment goroutines, and the reader's own
//     fast-path replies interleave safely.
//
// A request's slot in the window is released only after its response has
// been handed to the writer, so once the reader can claim every slot the
// session is quiescent and the channels can be torn down safely.
//
// Every request ID passes the ledger (ledger.go) on every transport:
//
//   - the reader claims an ID before it takes a window slot, so a
//     retransmit or a reused ID is dropped or answered again from the
//     answer cache without executing anything and without consuming a
//     slot (a gap-stalled window must never wedge the reader);
//   - ordered requests (EXCHANGE, BATCH, ATTACK, BYE) are submitted and
//     reach the executor in ID order; every other ID is skipped past;
//   - every response envelope carries the ledger's cumulative-progress
//     report, and the client's report prunes the answer cache;
//   - EXPERIMENT requests stream EnvPartial EXPERIMENT-PROGRESS frames
//     while they run; partials are never cached, so the final answer
//     still completes the request.
//
// The transports differ in one rule: on an unreliable transport a
// securelink Open failure drops the datagram and keeps reading (loss,
// duplication, and reordering are the transport's normal behaviour, not
// a compromise); on a stream it tears the session down.
//
// BYE is sequenced like any ordered op: the executor answers it only
// after every lower ID has executed, drains the rest of the window, and
// marks the response `last` — the writer flushes it, then closes the
// transport to steer the reader into teardown.
func (s *Server) serveSession(tc transportConn, sess *session, firstPlain []byte) {
	link := sess.link
	window := s.cfg.InFlightPerSession
	slots := make(chan struct{}, window) // filled = in flight
	exec := make(chan envelope, window)  // scenario ops, execution order
	out := make(chan envelope, window+1) // responses to the writer
	writerDone := make(chan struct{})
	led := newLedger()
	// dying closes when no further frame can ever be sent (the final BYE
	// response was flushed, or the transport broke): the reader stops
	// waiting for window slots — which may be held hostage by requests
	// held on a gap that can now never be filled — and falls through to
	// its read error.
	dying := make(chan struct{})
	var dyingOnce sync.Once
	die := func() { dyingOnce.Do(func() { close(dying) }) }
	// stopExec tells the executor the session is tearing down: discard
	// the held requests (releasing their window slots) and drain exec
	// without executing.
	stopExec := make(chan struct{})

	// free releases one request's window slot.
	free := func() {
		sess.met.LeaveFlight()
		<-slots
	}

	// Writer: sole owner of link.Seal and transport writes. On a write
	// error it closes the transport (waking the reader) and keeps
	// draining so no producer ever blocks forever. It records every
	// final response in the ledger before sending, so a retransmitted
	// request can be re-answered, and takes the frame's cumulative-
	// progress report from it.
	go func() {
		defer close(writerDone)
		broken := false
		for e := range out {
			if broken {
				if e.last {
					die()
				}
				continue
			}
			cum := led.complete(e)
			var flags uint8
			if e.partial {
				flags = wire.EnvPartial
			}
			if err := tc.writeFrame(link.Seal(wire.EncodeEnvelopeV3(e.id, flags, cum, e.msg))); err != nil {
				broken = true
				tc.close()
				die()
				continue
			}
			if e.partial {
				sess.met.ProgressFrames.Add(1)
				s.met.TotalProgressFrames.Add(1)
			}
			if e.last {
				// The BYE response is flushed: the session is over. Close
				// the transport so the reader's blocking read returns.
				tc.close()
				die()
			}
		}
	}()

	// Executor: scenario-mutating requests one at a time, in the order
	// the ledger released them onto exec. Every envelope on exec
	// except the BYE holds one slot of the global work budget, released
	// as soon as the scenario work is done.
	go func() {
		discard := false
		stop := stopExec
		for {
			select {
			case <-stop:
				stop = nil
				discard = true
				for range led.discard() {
					free()
				}
			case e, ok := <-exec:
				if !ok {
					return
				}
				if _, isBye := e.msg.(*wire.Bye); isBye {
					// Ordered ops below the BYE have all executed (it was
					// sequenced); anything held above it never will.
					for range led.discard() {
						free()
					}
					if discard {
						free()
						continue
					}
					// Drain every other in-flight request (experiments,
					// fast-path replies) so the BYE response is provably
					// the last frame of the session, then hand the window
					// back for the reader's teardown quiesce. The drain
					// yields to stopExec: if the transport dies mid-drain
					// the reader's quiesce competes for the same window,
					// and the answer would go nowhere anyway.
					held, stopped := 1, false
					for held < window && !stopped {
						select {
						case slots <- struct{}{}:
							held++
						case <-stop:
							stopped = true
						}
					}
					if !stopped {
						out <- envelope{id: e.id, msg: &wire.Bye{}, last: true}
					}
					sess.met.LeaveFlight()
					for i := 0; i < held; i++ {
						<-slots
					}
					if stopped {
						stop = nil
					}
					discard = true
					continue
				}
				if discard {
					s.releaseWork()
					free()
					continue
				}
				resp := s.dispatchScenario(sess, e.msg)
				s.releaseWork()
				out <- envelope{id: e.id, msg: resp}
				free()
			}
		}
	}()

	// takeSlot claims a window slot for a fresh request, giving up if the
	// session is dying (slots may then never free again).
	takeSlot := func() bool {
		select {
		case slots <- struct{}{}:
			return true
		case <-dying:
			return false
		}
	}

	// respond enqueues a response and releases the caller's window slot.
	respond := func(id uint64, m wire.Message) {
		if _, isErr := m.(*wire.Error); isErr {
			sess.met.Errors.Add(1)
		}
		out <- envelope{id: id, msg: m}
		free()
	}

	// release hands sequenced ordered requests to the executor. Global
	// load shedding happens at release time — a request held on a gap
	// must not sit on server-wide work budget while it waits. The
	// BYE response must be the session's last frame, so it ends the
	// window: a well-behaved client gives BYE its highest ID, and
	// anything released after it came from a misbehaving peer and is
	// dropped unanswered (its slot must not survive the executor's window
	// drain).
	byeSeen := false
	release := func(rel []envelope) {
		for _, e := range rel {
			if byeSeen {
				free()
				continue
			}
			if _, isBye := e.msg.(*wire.Bye); isBye {
				exec <- e
				byeSeen = true
				continue
			}
			if !s.acquireWork() {
				respond(e.id, s.shedRequest(sess))
				continue
			}
			exec <- e
		}
	}

	shutdown := func() {
		close(stopExec)
		for i := 0; i < window; i++ {
			slots <- struct{}{}
		}
		close(exec)
		close(out)
		<-writerDone
	}

	// Idle reaper: "busy" means a request holds a window slot for live
	// work — long experiments and deep pipelines are never reaped
	// mid-work. Slots of requests held on a gap do NOT count: a client
	// that died with a gap outstanding leaves them held forever, and the
	// session must still be reapable.
	var lastActivity atomic.Int64
	lastActivity.Store(time.Now().UnixNano())
	defer s.startReaper(tc, &lastActivity, func() bool {
		return len(slots)-led.pending() > 0
	})()

	// handle classifies one authenticated plaintext. Every claimed ID
	// passes the ledger's sequencing exactly once: ordered requests are
	// submitted, and every other ID is skipped past so ordered requests
	// above it can run.
	handle := func(plain []byte) {
		id, flags, cum, req, err := wire.DecodeEnvelopeV3(plain)
		if err == nil && flags != 0 {
			err = wire.ErrInvalid // a client never sends a partial
		}
		// An authentic but malformed envelope is answered with an error
		// and keeps the session. One too short to carry an ID is answered
		// as id 0 without entering the ledger; any other ID is claimed
		// like a request, so its answer is cached and it moves the cursor
		// (every later ordered op would otherwise wait on it forever).
		if err == nil || id != 0 {
			fresh, cached := led.claim(id, cum)
			if cached != nil {
				// Already answered: the response was lost, or the peer
				// reused a spent ID — re-send the answer without
				// executing anything.
				sess.met.Retransmits.Add(1)
				s.met.TotalRetransmits.Add(1)
				out <- envelope{id: id, msg: cached}
			}
			if !fresh {
				return
			}
		}
		if byeSeen {
			// The session's BYE has been sequenced; nothing fresh may
			// enter the window while the executor drains it.
			return
		}
		if !takeSlot() {
			return
		}
		sess.met.EnterFlight()
		if err != nil {
			respond(id, &wire.Error{Code: wire.CodeBadRequest, Msg: "malformed request"})
			if id != 0 {
				release(led.skip(id))
			}
			return
		}
		if orderedKind(req.Kind()) {
			// Sequenced: the executor runs it (or, for BYE, answers it)
			// after everything below it.
			release(led.submit(envelope{id: id, msg: req}))
			return
		}
		switch m := req.(type) {
		case *wire.ExperimentReq:
			// Global load shedding: experiment work must fit the
			// server-wide in-flight budget or be answered BUSY. The BUSY
			// flows through the writer like any response, so it lands in
			// the answer cache — a retransmit of the same request ID gets
			// the cached BUSY, never a second execution attempt.
			if !s.acquireWork() {
				respond(id, s.shedRequest(sess))
				break
			}
			sess.met.Experiments.Add(1)
			emit := func(p *wire.ExperimentProgress) {
				out <- envelope{id: id, msg: p, partial: true}
			}
			go func() {
				defer s.releaseWork()
				respond(id, s.handleExperiment(m, emit))
			}()
		case *wire.Ping:
			sess.met.Pings.Add(1)
			s.met.TotalPings.Add(1)
			respond(id, &wire.Pong{Token: m.Token})
		case *wire.StatusReq:
			st := s.Status()
			respond(id, &st)
		case *wire.MetricsReq:
			respond(id, s.handleMetrics(sess))
		default:
			respond(id, &wire.Error{Code: wire.CodeBadRequest, Msg: "unexpected request"})
		}
		release(led.skip(id))
	}

	handle(firstPlain)
	for {
		raw, hs, err := tc.readFrame()
		if err != nil {
			shutdown()
			return
		}
		if hs {
			// A handshake datagram straggling into an established session
			// is usually a late HELLO retransmit of this session: ignore
			// it. A cookie-verified HELLO with a DIFFERENT nonce is a new
			// client instance on this address — hand the address over.
			if sess.takeover != nil && sess.takeover(raw) {
				shutdown()
				return
			}
			continue
		}
		lastActivity.Store(time.Now().UnixNano())
		plain, err := link.Open(raw)
		if err != nil {
			if tc.unreliable() {
				// Duplicated, reordered-beyond-window, or corrupted
				// datagram: normal loss, visible in link.Stats().
				continue
			}
			// On a stream, authentication/replay failure is a transport
			// compromise: tear the session down.
			shutdown()
			return
		}
		handle(plain)
		lastActivity.Store(time.Now().UnixNano())
	}
}

// scenarioOptions validates a HELLO and maps it onto testbed options.
func (s *Server) scenarioOptions(h *wire.Hello) (testbed.Options, error) {
	var opt testbed.Options
	if int(h.ExtraIMDs) > s.cfg.MaxExtraIMDs {
		return opt, fmt.Errorf("extra IMDs %d exceeds server limit %d", h.ExtraIMDs, s.cfg.MaxExtraIMDs)
	}
	if int(h.Location) > len(testbed.Locations) {
		return opt, fmt.Errorf("location %d out of range", h.Location)
	}
	opt.Seed = h.Seed
	opt.Location = int(h.Location)
	opt.ExtraIMDs = int(h.ExtraIMDs)
	if h.Flags&wire.FlagHighPowerAdversary != 0 {
		opt.AdversaryPowerDBm = testbed.HighPowerAdvDBm
	}
	if h.Flags&wire.FlagFlatJam != 0 {
		opt.Shape = shieldcore.FlatJam
	}
	if h.Flags&wire.FlagDigitalCancel != 0 {
		opt.DigitalCancel = true
	}
	if h.Flags&wire.FlagConcerto != 0 {
		opt.Profile = imd.ConcertoCRT
	}
	return opt, nil
}

// session is one active session's simulated world plus cached per-IMD
// calibration and counters. The scenario-touching fields are driven by
// exactly one goroutine at a time (the session's executor); met and
// link are safe for concurrent use.
type session struct {
	id    uint64
	sc    *testbed.Scenario
	eaves *adversary.Eavesdropper
	adv   *adversary.Active
	link  *securelink.Link
	met   metrics.Session
	// rssi caches each implant's calibrated received power at the shield;
	// switching exchange targets restores the matching measurement.
	rssi   []float64
	target int
	// takeover, on datagram sessions, classifies handshake frames that
	// straggle into the established session; returning true ends the
	// session so a new client instance on the same address can start
	// fresh (see sessionTakeover). Nil on stream sessions.
	takeover func(payload []byte) bool
}

// newSession wires a scenario into a session, calibrating every implant
// in index order (for a single-IMD session this is exactly the public
// NewSimulation setup, which is what keeps remote and in-process results
// identical per seed).
func (s *Server) newSession(opt testbed.Options) *session {
	sc := s.pool.get(opt)
	sess := &session{sc: sc, rssi: make([]float64, len(sc.IMDs))}
	for i := range sc.IMDs {
		sess.rssi[i] = sc.CalibrateIMD(i)
	}
	if len(sc.IMDs) > 1 {
		// Calibration walked the targets; return to the primary.
		sc.Shield.SetProtected(sc.IMDs[0].Profile)
		sc.Shield.SetIMDRSSI(sess.rssi[0])
	}
	sess.eaves = sc.NewEavesdropper()
	sess.adv = sc.NewActiveAdversary()
	return sess
}

// retarget points the shield at IMD idx with its calibrated RSSI.
func (sess *session) retarget(idx int) {
	if idx == sess.target {
		return
	}
	sess.sc.Shield.SetProtected(sess.sc.IMDs[idx].Profile)
	sess.sc.Shield.SetIMDRSSI(sess.rssi[idx])
	sess.target = idx
}

// dispatchScenario executes one scenario-mutating request — the
// executor path. Only EXCHANGE, BATCH-EXCHANGE, and ATTACK reach it.
func (s *Server) dispatchScenario(sess *session, req wire.Message) wire.Message {
	var resp wire.Message
	switch m := req.(type) {
	case *wire.ExchangeReq:
		resp = s.handleExchange(sess, m)
	case *wire.BatchReq:
		resp = s.handleBatch(sess, m)
	case *wire.AttackReq:
		resp = s.handleAttack(sess, m)
	default:
		resp = &wire.Error{Code: wire.CodeInternal, Msg: "non-scenario request on executor"}
	}
	if _, isErr := resp.(*wire.Error); isErr {
		sess.met.Errors.Add(1)
	}
	return resp
}

// runExchange executes one protected exchange against IMD index idx —
// the same sequence as the public Simulation path, so the per-seed
// result stream is identical in-process and over the wire.
func (s *Server) runExchange(sess *session, idx int, cmdKind uint8) (wire.ExchangeResp, error) {
	sess.retarget(idx)
	sc := sess.sc

	var cmd = sc.InterrogateFrameFor(idx)
	if cmdKind == wire.CmdSetTherapy {
		cmd = sc.SetTherapyFrameFor(idx, 200)
	}

	out, err := sc.RunProtectedExchange(sess.eaves, idx, cmd)
	if err != nil {
		return wire.ExchangeResp{}, err
	}
	s.met.TotalExchanges.Add(1)
	return wire.ExchangeResp{
		Response:        out.Response.Payload,
		ResponseCommand: out.Response.Command.String(),
		EavesBER:        out.EavesdropperBER,
		CancellationDB:  out.CancellationDB,
	}, nil
}

// handleExchange runs one protected exchange.
func (s *Server) handleExchange(sess *session, m *wire.ExchangeReq) wire.Message {
	idx := int(m.IMD)
	if idx >= len(sess.sc.IMDs) {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("IMD index %d out of range", idx)}
	}
	resp, err := s.runExchange(sess, idx, m.Cmd)
	if err != nil {
		return &wire.Error{Code: wire.CodeExchangeFailed, Msg: err.Error()}
	}
	sess.met.Exchanges.Add(1)
	return &resp
}

// handleBatch runs a BATCH-EXCHANGE: every item is validated up front (a
// bad index refuses the whole batch before any scenario mutation), then
// the items run in order against the session scenario — the identical
// result stream to the same items sent as individual EXCHANGE frames.
func (s *Server) handleBatch(sess *session, m *wire.BatchReq) wire.Message {
	if len(m.Items) == 0 {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "empty batch"}
	}
	if len(m.Items) > wire.MaxBatch {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "batch exceeds MaxBatch"}
	}
	for i, it := range m.Items {
		if int(it.IMD) >= len(sess.sc.IMDs) {
			return &wire.Error{Code: wire.CodeBadRequest,
				Msg: fmt.Sprintf("item %d: IMD index %d out of range", i, it.IMD)}
		}
	}
	results := make([]wire.ExchangeResp, len(m.Items))
	for i, it := range m.Items {
		resp, err := s.runExchange(sess, int(it.IMD), it.Cmd)
		if err != nil {
			return &wire.Error{Code: wire.CodeExchangeFailed,
				Msg: fmt.Sprintf("item %d: %v", i, err)}
		}
		results[i] = resp
	}
	sess.met.Batches.Add(1)
	sess.met.BatchedExchanges.Add(uint64(len(m.Items)))
	s.met.TotalBatches.Add(1)
	return &wire.BatchResp{Results: results}
}

// handleAttack runs one unauthorized-command trial (the Simulation.Attack
// sequence).
func (s *Server) handleAttack(sess *session, m *wire.AttackReq) wire.Message {
	sess.retarget(0)
	sc := sess.sc

	var cmd = sc.InterrogateFrameFor(0)
	if m.Cmd == wire.CmdSetTherapy {
		cmd = sc.SetTherapyFrameFor(0, 200)
	}

	out := sc.RunAttackTrial(sess.adv, cmd, m.ShieldOn)
	sess.met.Attacks.Add(1)
	s.met.TotalAttacks.Add(1)
	return &wire.AttackResp{
		IMDResponded:     out.Responded,
		TherapyChanged:   out.TherapyChanged,
		ShieldJammed:     out.Jammed,
		Alarmed:          out.Alarmed,
		AdversaryRSSIDBm: out.RSSIAtShieldDBm,
	}
}

// progressChunk is the trial-count granularity of streamed
// EXPERIMENT-PROGRESS frames. Emission is count-based (every chunk of
// completed trials plus the final trial), so the NUMBER of progress
// frames an experiment produces is a pure function of its trial count —
// deterministic across runs even though the parallel runner completes
// trials in nondeterministic order.
const progressChunk = 64

// handleExperiment runs a registry experiment server-side with the
// deterministic worker fan-out bounded by the server config. When emit
// is non-nil, incremental progress is streamed through it
// at progressChunk-trial granularity while the experiment runs.
func (s *Server) handleExperiment(m *wire.ExperimentReq, emit func(*wire.ExperimentProgress)) wire.Message {
	workers := int(m.Workers)
	if workers > s.cfg.ExperimentWorkers {
		workers = s.cfg.ExperimentWorkers
	}
	cfg := experiments.Config{
		Seed:    m.Seed,
		Trials:  int(m.Trials),
		Quick:   m.Quick,
		Workers: workers,
	}
	if emit != nil {
		cfg.Progress = func(done, total int) {
			if done%progressChunk == 0 || done == total {
				emit(&wire.ExperimentProgress{
					Done:  uint32(done),
					Total: uint32(total),
					Stage: m.Name,
				})
			}
		}
	}
	res, err := experiments.RunByName(m.Name, cfg)
	if err != nil {
		return &wire.Error{Code: wire.CodeUnknownExperiment, Msg: err.Error()}
	}
	s.met.TotalExperiments.Add(1)
	return &wire.ExperimentResp{Rendered: res.Render()}
}

// handleMetrics builds the session's STATUS-METRICS snapshot.
func (s *Server) handleMetrics(sess *session) wire.Message {
	ls := sess.link.Stats()
	return &wire.MetricsResp{
		SessionID:            sess.id,
		Protocol:             wire.Version,
		Exchanges:            sess.met.Exchanges.Load(),
		Batches:              sess.met.Batches.Load(),
		BatchedExchanges:     sess.met.BatchedExchanges.Load(),
		Attacks:              sess.met.Attacks.Load(),
		Experiments:          sess.met.Experiments.Load(),
		Pings:                sess.met.Pings.Load(),
		Errors:               sess.met.Errors.Load(),
		Retransmits:          sess.met.Retransmits.Load(),
		Rekeys:               ls.Rekeys,
		ReplayDrops:          ls.ReplayDrops,
		WindowAccepts:        ls.WindowAccepts,
		BytesSealed:          ls.BytesSealed,
		BytesOpened:          ls.BytesOpened,
		InFlight:             uint32(sess.met.InFlight()),
		InFlightHWM:          uint32(sess.met.InFlightHWM()),
		ServerActiveSessions: uint32(s.met.ActiveSessions.Load()),
		ServerTotalSessions:  s.met.TotalSessions.Load(),
		ServerReapedSessions: s.met.ReapedSessions.Load(),
		Shed:                 sess.met.Shed.Load(),
		ServerCookiesSent:    s.met.CookiesSent.Load(),
		ServerCookieRejects:  s.met.CookieRejects.Load(),
		ServerShedHandshakes: s.met.ShedHandshakes.Load(),
		ServerShedRequests:   s.met.ShedRequests.Load(),
		ServerRateLimited:    s.met.RateLimited.Load(),
		ProgressFrames:       sess.met.ProgressFrames.Load(),
	}
}

// Status returns server-wide counters.
func (s *Server) Status() wire.StatusResp {
	return wire.StatusResp{
		ActiveSessions:   uint32(s.met.ActiveSessions.Load()),
		PooledScenarios:  uint32(s.pool.idle()),
		TotalSessions:    s.met.TotalSessions.Load(),
		TotalExchanges:   s.met.TotalExchanges.Load(),
		TotalExperiments: s.met.TotalExperiments.Load(),
	}
}

// Metrics snapshots the server-wide metrics (the cmd/shieldd -metrics
// periodic dump). Cheap enough to scrape continuously under thousands
// of live sessions: the counter snapshot is pure atomic loads, the pool
// depth is one atomic load (no pool lock), and the live-session sweep
// is atomic loads under a read lock — no allocation anywhere.
func (s *Server) Metrics() metrics.ServerSnapshot {
	snap := s.met.Snapshot()
	snap.PooledScenarios = s.pool.idle()
	live := s.reg.Live()
	snap.LiveSessions = live.Sessions
	snap.LiveInFlight = live.InFlight
	snap.LiveInFlightHWM = live.InFlightHWM
	return snap
}
