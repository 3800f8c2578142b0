package shieldd

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// transportConn is the frame transport the session loops (server
// serveSession, client mux) are written against: a way to move
// securelink-sealed frames, plus the two properties that distinguish a
// datagram transport from a stream — whether a given inbound frame is a
// plaintext handshake datagram, and whether the transport is unreliable
// (loss, duplication, and reordering are normal, so a failed securelink
// Open means "drop the datagram", not "tear the session down").
type transportConn interface {
	// readFrame returns the next inbound frame. handshake reports a
	// plaintext handshake frame (only ever true on datagram transports,
	// where a retransmitted HELLO can trail into an established session).
	readFrame() (payload []byte, handshake bool, err error)
	// writeFrame sends one sealed session frame.
	writeFrame(payload []byte) error
	close() error
	setReadDeadline(t time.Time) error
	// unreliable reports datagram loss semantics: securelink Open
	// failures are dropped datagrams, not a compromise, and the client
	// retransmits requests until their answers arrive.
	unreliable() bool
}

// streamConn adapts a net.Conn with the wire length-prefixed framing —
// the TCP / net.Pipe transport the server has always spoken.
type streamConn struct {
	c net.Conn
}

func (s *streamConn) readFrame() ([]byte, bool, error) {
	p, err := wire.ReadFrame(s.c)
	return p, false, err
}

func (s *streamConn) writeFrame(p []byte) error         { return wire.WriteFrame(s.c, p) }
func (s *streamConn) close() error                      { return s.c.Close() }
func (s *streamConn) setReadDeadline(t time.Time) error { return s.c.SetReadDeadline(t) }
func (s *streamConn) unreliable() bool                  { return false }

// packetTC adapts a dgram frame connection (client Conn or server
// PeerConn): one datagram per frame, kind byte distinguishing plaintext
// handshake retransmits from sealed session frames.
type packetTC struct {
	fc dgram.FrameConn
}

func (p *packetTC) readFrame() ([]byte, bool, error) {
	kind, payload, err := p.fc.ReadFrame()
	if err != nil {
		return nil, false, err
	}
	return payload, kind == dgram.KindHandshake, nil
}

func (p *packetTC) writeFrame(b []byte) error         { return p.fc.WriteFrame(dgram.KindSealed, b) }
func (p *packetTC) close() error                      { return p.fc.Close() }
func (p *packetTC) setReadDeadline(t time.Time) error { return p.fc.SetReadDeadline(t) }
func (p *packetTC) unreliable() bool                  { return true }

// Datagram-transport session parameters.
const (
	// dgramWindow is the securelink receive window on datagram sessions:
	// large enough to absorb retransmit-induced reordering, far below the
	// 63-position cap.
	dgramWindow = 32
	// defaultRetryTimeout is the client's initial retransmit timeout.
	defaultRetryTimeout = 250 * time.Millisecond
	// defaultMaxRetries bounds retransmissions per request before the
	// call fails with a timeout error.
	defaultMaxRetries = 8
	// maxRetryBackoff caps the exponential retransmit backoff.
	maxRetryBackoff = 4 * time.Second
	// defaultSendWindow is the client's pipelining window: how many
	// requests may be awaiting responses at once before Go blocks. It
	// matches the server's default InFlightPerSession so a full client
	// window can never wedge the server-side reorder buffer.
	defaultSendWindow = 16
	// fastRetransmitSkips is the selective-repeat dup-ack threshold: when
	// this many ordered responses with higher IDs have arrived while an
	// ordered request is still pending, its response datagram is presumed
	// lost (the server executes ordered requests in ID order, so their
	// responses leave in ID order) and the request is re-sent immediately
	// instead of waiting out the retry timer. On a loss-free in-order
	// link the count can never be reached, so a perfect link sees zero
	// retransmits.
	fastRetransmitSkips = 3
)

// TransportStats counts the client-side cost of an unreliable
// transport: how many requests were retransmitted and how many gave up.
// Always zero on stream transports.
type TransportStats struct {
	// Retransmits is the number of request datagrams re-sent after a
	// retry timeout expired without a response.
	Retransmits uint64
	// Timeouts is the number of requests that failed after exhausting
	// every retransmission.
	Timeouts uint64
	// ProgressFrames is the number of streamed EXPERIMENT-PROGRESS
	// frames received (zero on clients that never ran a streamed
	// experiment). Unlike the other counters it is also
	// populated on stream transports.
	ProgressFrames uint64
}

// retrier is the client-side reliability layer for datagram sessions:
// every in-flight request's plaintext envelope is kept until its
// response arrives, and re-sealed + retransmitted on an exponential
// backoff schedule. Re-sealing (rather than caching the sealed bytes)
// is load-bearing: a byte-identical resend would be swallowed by the
// server's securelink replay protection before the request ID could be
// matched against the request ledger.
type retrier struct {
	c        *Client
	rto      time.Duration
	maxTries int

	mu      sync.Mutex
	entries map[uint64]*retryEntry
	wake    chan struct{}
	stopped bool

	retransmits atomic.Uint64
	timeouts    atomic.Uint64
}

type retryEntry struct {
	env     []byte // plaintext envelope id||flags||cum||msg
	tries   int
	next    time.Time
	ordered bool // scenario-ordered request: responses arrive in ID order
	skips   int  // ordered responses with higher IDs seen while pending
}

func newRetrier(c *Client, rto time.Duration, maxTries int) *retrier {
	if rto <= 0 {
		rto = defaultRetryTimeout
	}
	if maxTries <= 0 {
		maxTries = defaultMaxRetries
	}
	return &retrier{
		c:        c,
		rto:      rto,
		maxTries: maxTries,
		entries:  make(map[uint64]*retryEntry),
		wake:     make(chan struct{}, 1),
	}
}

// track registers an in-flight request for retransmission. ordered
// marks requests the server sequences (EXCHANGE/BATCH/ATTACK/BYE),
// which makes them eligible for skip-count fast retransmission.
func (r *retrier) track(id uint64, env []byte, ordered bool) {
	r.mu.Lock()
	if !r.stopped {
		r.entries[id] = &retryEntry{env: env, next: time.Now().Add(r.rto), ordered: ordered}
	}
	r.mu.Unlock()
	r.poke()
}

// ack drops a request whose response arrived.
func (r *retrier) ack(id uint64) {
	r.mu.Lock()
	delete(r.entries, id)
	r.mu.Unlock()
}

// touch resets a request's retry schedule: a streamed partial response
// proved the server holds the request and is executing it, so the full
// timer (and try budget) starts over from now.
func (r *retrier) touch(id uint64) {
	r.mu.Lock()
	if e, ok := r.entries[id]; ok {
		e.tries = 0
		e.next = time.Now().Add(r.rto)
	}
	r.mu.Unlock()
}

// observe records the arrival of a final response to an ordered request:
// every ordered request still pending with a smaller ID has provably had
// its response sent (ordered execution is in ID order), so its response
// datagram is in flight or lost. After fastRetransmitSkips such signals
// the request is re-sent immediately — selective repeat of exactly the
// lost ID, at round-trip rather than retry-timer latency.
func (r *retrier) observe(respID uint64) {
	var resend [][]byte
	r.mu.Lock()
	if !r.stopped {
		for id, e := range r.entries {
			if !e.ordered || id >= respID {
				continue
			}
			e.skips++
			if e.skips >= fastRetransmitSkips {
				e.skips = 0
				e.next = time.Now().Add(r.backoff(e.tries))
				resend = append(resend, e.env)
			}
		}
	}
	r.mu.Unlock()
	for _, env := range resend {
		r.retransmits.Add(1)
		r.c.resendEnvelope(env)
	}
}

// stop ends the retry loop; tracked entries are abandoned (their calls
// are failed by whoever is tearing the client down).
func (r *retrier) stop() {
	r.mu.Lock()
	r.stopped = true
	r.entries = map[uint64]*retryEntry{}
	r.mu.Unlock()
	r.poke()
}

func (r *retrier) poke() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// backoff returns the delay before try n's successor.
func (r *retrier) backoff(tries int) time.Duration {
	d := r.rto << uint(tries)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	return d
}

// run is the retransmit loop: wake at the earliest deadline, re-send
// everything due, expire anything out of tries.
func (r *retrier) run() {
	for {
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		var earliest time.Time
		for _, e := range r.entries {
			if earliest.IsZero() || e.next.Before(earliest) {
				earliest = e.next
			}
		}
		r.mu.Unlock()

		if earliest.IsZero() {
			// Nothing in flight: sleep until poked.
			<-r.wake
			continue
		}
		if d := time.Until(earliest); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-r.wake:
				timer.Stop()
				continue
			case <-timer.C:
			}
		}

		now := time.Now()
		var resend [][]byte
		var expired []uint64
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		for id, e := range r.entries {
			if e.next.After(now) {
				continue
			}
			e.tries++
			if e.tries > r.maxTries {
				expired = append(expired, id)
				delete(r.entries, id)
				continue
			}
			e.next = now.Add(r.backoff(e.tries))
			resend = append(resend, e.env)
		}
		r.mu.Unlock()

		for _, env := range resend {
			r.retransmits.Add(1)
			r.c.resendEnvelope(env)
		}
		for _, id := range expired {
			r.timeouts.Add(1)
			r.c.expireCall(id)
		}
	}
}
