package shieldd_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// TestVersionInteropMatrix pins the one wire protocol over both
// transports: a client at wire.Version completes a session whose
// results equal the in-process run, and a raw HELLO at every older
// version (and at 0) is refused with a plaintext CodeUnsupportedVersion
// error — never a hang — while the server counts no session and keeps
// no datagram peer for it. On datagrams the refusal comes only after
// the cookie round, so a spoofed source still gets nothing but a cookie.
func TestVersionInteropMatrix(t *testing.T) {
	want := localPair(7)
	refused := func(t *testing.T, srv *shieldd.Server, hello func(*wire.Hello) (wire.Message, error), cv uint8) {
		before := srv.Status()
		peers := srv.DatagramPeers()
		r := dialCellErr(t, func() (*shieldd.Client, error) {
			m, err := hello(&wire.Hello{Version: cv, Seed: 7, KeyShare: make([]byte, 32)})
			if err != nil {
				return nil, err
			}
			if e, ok := m.(*wire.Error); ok {
				return nil, e
			}
			return nil, fmt.Errorf("server answered a v%d HELLO with %T", cv, m)
		})
		var we *wire.Error
		if !errors.As(r.err, &we) || we.Code != wire.CodeUnsupportedVersion {
			t.Fatalf("v%d HELLO: got %v, want a CodeUnsupportedVersion refusal", cv, r.err)
		}
		after := srv.Status()
		if after.TotalSessions != before.TotalSessions || after.ActiveSessions != before.ActiveSessions {
			t.Fatalf("refused HELLO moved session counters: %+v -> %+v", before, after)
		}
		// The refusing peer goroutine unregisters just after its reply.
		deadline := time.Now().Add(5 * time.Second)
		for srv.DatagramPeers() != peers {
			if time.Now().After(deadline) {
				t.Fatalf("refused HELLO left %d datagram peers, want %d", srv.DatagramPeers(), peers)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	check := func(t *testing.T, c *shieldd.Client) {
		defer c.Close()
		if got := clientPair(t, c); got != want {
			t.Errorf("session results %+v != in-process %+v", got, want)
		}
		m, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if m.Protocol != wire.Version {
			t.Errorf("session reports protocol v%d, want v%d", m.Protocol, wire.Version)
		}
	}

	t.Run("stream", func(t *testing.T) {
		srv := newServer(t, shieldd.ServerConfig{})
		hello := func(h *wire.Hello) (wire.Message, error) {
			cEnd, sEnd := net.Pipe()
			go srv.ServeConn(sEnd)
			defer cEnd.Close()
			if err := wire.WriteFrame(cEnd, h.Encode()); err != nil {
				return nil, err
			}
			raw, err := wire.ReadFrame(cEnd)
			if err != nil {
				return nil, err
			}
			return wire.Decode(raw)
		}
		for cv := uint8(0); cv <= wire.Version; cv++ {
			t.Run(fmt.Sprintf("c%d_s%d", cv, wire.Version), func(t *testing.T) {
				if cv < wire.Version {
					refused(t, srv, hello, cv)
					return
				}
				check(t, dialCell(t, func() (*shieldd.Client, error) {
					return srv.Pipe(shieldd.SessionOptions{Seed: 7})
				}))
			})
		}
	})

	t.Run("datagram", func(t *testing.T) {
		nw := faultnet.New(44, faultnet.Impairment{})
		defer nw.Close()
		srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
		for cv := uint8(0); cv <= wire.Version; cv++ {
			t.Run(fmt.Sprintf("c%d_s%d", cv, wire.Version), func(t *testing.T) {
				ep, err := nw.Listen(fmt.Sprintf("mx-%d", cv))
				if err != nil {
					t.Fatal(err)
				}
				if cv < wire.Version {
					defer ep.Close()
					refused(t, srv, func(h *wire.Hello) (wire.Message, error) {
						return packetHello(ep, h)
					}, cv)
					return
				}
				check(t, dialCell(t, func() (*shieldd.Client, error) {
					return shieldd.NewPacketClient(ep, faultnet.Addr("server"), testSecret,
						shieldd.SessionOptions{Seed: 7, RetryTimeout: 20 * time.Millisecond, MaxRetries: 5})
				}))
			})
		}
	})
}

// packetHello runs h through the datagram admission gate of the
// faultnet "server" as raw handshake datagrams: the cookie-less HELLO
// must earn only a cookie, and the cookied retry's reply is returned.
func packetHello(ep *faultnet.Endpoint, h *wire.Hello) (wire.Message, error) {
	send := func() (wire.Message, error) {
		frame, err := dgram.Encode(dgram.KindHandshake, h.Encode())
		if err != nil {
			return nil, err
		}
		if _, err := ep.WriteTo(frame, faultnet.Addr("server")); err != nil {
			return nil, err
		}
		_ = ep.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 2048)
		n, _, err := ep.ReadFrom(buf)
		if err != nil {
			return nil, err
		}
		kind, payload, err := dgram.Decode(buf[:n])
		if err != nil || kind != dgram.KindHandshake {
			return nil, fmt.Errorf("reply frame kind=%d err=%v", kind, err)
		}
		return wire.Decode(payload)
	}
	m, err := send()
	if err != nil {
		return nil, err
	}
	ck, ok := m.(*wire.Cookie)
	if !ok {
		return nil, fmt.Errorf("gate answered a cookie-less HELLO with %T, want a cookie", m)
	}
	h.Cookie = ck.Cookie
	return send()
}

// dialCell runs dial under a watchdog: a matrix cell that hangs fails
// fast instead of timing out the whole package.
func dialCell(t *testing.T, dial func() (*shieldd.Client, error)) *shieldd.Client {
	t.Helper()
	r := dialCellErr(t, dial)
	if r.err != nil {
		t.Fatalf("dial: %v", r.err)
	}
	return r.c
}

type dialResult struct {
	c   *shieldd.Client
	err error
}

func dialCellErr(t *testing.T, dial func() (*shieldd.Client, error)) dialResult {
	t.Helper()
	done := make(chan dialResult, 1)
	go func() {
		c, err := dial()
		done <- dialResult{c, err}
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(15 * time.Second):
		t.Fatal("handshake hung")
		return dialResult{}
	}
}

// TestV4ResumptionStream: after the idle reaper kills a stream session,
// AutoReconnect re-handshakes by redeeming the resumption ticket — the
// new session runs on resumed forward-secret keys (Resumed, one resume
// counted) and still restarts the deterministic stream at the seed.
func TestV4ResumptionStream(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer l.Close()
	srv := newServer(t, shieldd.ServerConfig{IdleTimeout: 300 * time.Millisecond})
	go srv.Serve(l)

	c, err := shieldd.Dial(l.Addr().String(), testSecret, shieldd.SessionOptions{Seed: 41, AutoReconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Resumed() {
		t.Fatal("initial handshake reports itself resumed")
	}
	first, err := c.Exchange(0, wire.CmdInterrogate)
	if err != nil {
		t.Fatal(err)
	}
	firstSession := c.SessionID()

	awaitReap(t, srv, c, 0, "session never reaped")

	again, err := c.Exchange(0, wire.CmdInterrogate)
	if err != nil {
		t.Fatalf("exchange after reap: %v", err)
	}
	if !c.Resumed() {
		t.Error("reconnected session did not resume from its ticket")
	}
	if n := c.Resumes(); n != 1 {
		t.Errorf("resume count = %d, want 1", n)
	}
	if c.SessionID() == firstSession {
		t.Error("session ID unchanged across resumption")
	}
	if again.EavesBER != first.EavesBER || again.CancellationDB != first.CancellationDB {
		t.Errorf("resumed stream first exchange %+v != original %+v", again, first)
	}

	// Each resumption mints a fresh single-use ticket: a second reap
	// cycle must resume again, not fall back to the full AKE.
	awaitReap(t, srv, c, srv.Metrics().ReapedSessions, "resumed session never reaped")
	if _, err := c.Exchange(0, wire.CmdInterrogate); err != nil {
		t.Fatalf("exchange after second reap: %v", err)
	}
	if n := c.Resumes(); n != 2 {
		t.Errorf("resume count after second cycle = %d, want 2", n)
	}
}

// TestV4ResumptionDatagramGate: a datagram reconnect from the ticket's
// issuing address skips the stateless-cookie round entirely — the gate
// admits the ticket directly, so resumption is one round trip and the
// server's CookiesSent counter stays flat.
func TestV4ResumptionDatagramGate(t *testing.T) {
	nw := faultnet.New(44, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{
		MaxSessions: 4, IdleTimeout: 300 * time.Millisecond,
	})

	ep, err := nw.Listen("res-client")
	if err != nil {
		t.Fatal(err)
	}
	c, err := shieldd.NewPacketClient(ep, faultnet.Addr("server"), testSecret, shieldd.SessionOptions{
		Seed:          9,
		AutoReconnect: true,
		RetryTimeout:  10 * time.Millisecond,
		MaxRetries:    4,
		// Redial from the SAME faultnet address: the resumption ticket is
		// address-bound at the gate, and only the issuing address gets the
		// one-round-trip path. Closing the old endpoint first frees the
		// name (the dead session's transport is already unusable).
		RedialPacket: func() (net.PacketConn, net.Addr, error) {
			ep.Close()
			ep2, err := nw.Listen("res-client")
			if err != nil {
				return nil, nil, err
			}
			return ep2, faultnet.Addr("server"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := clientPair(t, c)

	awaitReap(t, srv, c, 0, "idle datagram session never reaped")

	// The death is only observable via retransmit exhaustion: the first
	// post-reap request fails and poisons the session, the next one
	// reconnects.
	if _, err := c.Exchange(0, wire.CmdInterrogate); err == nil {
		t.Fatal("exchange on a reaped datagram session succeeded")
	}
	cookiesBefore := srv.Metrics().CookiesSent

	again := clientPair(t, c)
	if again != first {
		t.Errorf("resumed stream pair %+v != original %+v", again, first)
	}
	if !c.Resumed() {
		t.Error("datagram reconnect did not resume from its ticket")
	}
	if n := c.Resumes(); n != 1 {
		t.Errorf("resume count = %d, want 1", n)
	}
	if got := srv.Metrics().CookiesSent; got != cookiesBefore {
		t.Errorf("resumption cost %d cookie round trips, want 0 (ticket admits at the gate)", got-cookiesBefore)
	}
}

// TestClientGoroutineHygiene is the timer/goroutine teardown wall:
// repeated session open/use/close cycles — including a datagram Close
// against a dead server and a failed AutoReconnect — must not leave
// retransmit timers, read loops, or retrier goroutines behind.
func TestClientGoroutineHygiene(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer l.Close()
	srv := newServer(t, shieldd.ServerConfig{IdleTimeout: 200 * time.Millisecond})
	go srv.Serve(l)
	nw := faultnet.New(46, faultnet.Impairment{})
	defer nw.Close()
	startPacketServer(t, nw, "gserver", shieldd.ServerConfig{IdleTimeout: 200 * time.Millisecond})

	cycle := func(i int) {
		// Stream cycle.
		sc, err := shieldd.Dial(l.Addr().String(), testSecret, shieldd.SessionOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Exchange(0, wire.CmdInterrogate); err != nil {
			t.Fatal(err)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		// Datagram cycle.
		dc := dialPacket(t, nw, fmt.Sprintf("g%d", i), "gserver", shieldd.SessionOptions{
			Seed: 1, RetryTimeout: 10 * time.Millisecond, MaxRetries: 3,
		})
		if err := dc.Ping(); err != nil {
			t.Fatal(err)
		}
		if err := dc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// One warmup pass so lazy singletons (pools, DNS, scenario shapes)
	// are allocated before the baseline is taken.
	cycle(0)
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	baseline := runtime.NumGoroutine()

	for i := 1; i <= 4; i++ {
		cycle(i)
	}

	// Failed AutoReconnect: the reaper kills the session, the redial
	// hook refuses, and every retry path must still tear down cleanly.
	fc := dialPacket(t, nw, "gfail", "gserver", shieldd.SessionOptions{
		Seed: 1, AutoReconnect: true,
		RetryTimeout: 10 * time.Millisecond, MaxRetries: 3,
		RedialPacket: func() (net.PacketConn, net.Addr, error) {
			return nil, nil, errors.New("redial refused by test")
		},
	})
	if err := fc.Ping(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := fc.Exchange(0, wire.CmdInterrogate); err != nil {
			break // session died and the failed reconnect surfaced
		}
		if time.Now().After(deadline) {
			t.Fatal("datagram session never reaped under idle timeout")
		}
		time.Sleep(250 * time.Millisecond)
	}
	if _, err := fc.Exchange(0, wire.CmdInterrogate); err == nil {
		t.Fatal("exchange succeeded after redial hook refused")
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}

	// Close against a dead server: BYE retransmits must give up on
	// their bounded budget and the retrier must stop.
	dead := dialPacket(t, nw, "gdead", "gserver", shieldd.SessionOptions{
		Seed: 1, RetryTimeout: 10 * time.Millisecond, MaxRetries: 3,
	})
	if err := dead.Ping(); err != nil {
		t.Fatal(err)
	}
	nw.SetFlowImpairment("gdead", "gserver", faultnet.Impairment{Drop: 1.0})
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything torn down: the goroutine count must return to the
	// baseline (plus slack for server-side reap/accept churn in flight).
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
