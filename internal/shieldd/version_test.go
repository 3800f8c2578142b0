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
)

// TestVersionInteropMatrix pins version negotiation across every client
// protocol cap {1,2,3,4} against every server cap {1,2,3,4}, over both
// transports. Every cell must end in a completed session at
// min(client, server) or a clean typed error — never a hang. This is
// the rollback safety net for the v4 handshake: old peers on either
// side keep working.
func TestVersionInteropMatrix(t *testing.T) {
	want := localPair(7)

	t.Run("stream", func(t *testing.T) {
		for sv := uint8(1); sv <= wire.Version; sv++ {
			srv := newServer(t, shieldd.ServerConfig{MaxProtocol: sv})
			for cv := uint8(1); cv <= wire.Version; cv++ {
				t.Run(fmt.Sprintf("c%d_s%d", cv, sv), func(t *testing.T) {
					c := dialCell(t, func() (*shieldd.Client, error) {
						return srv.Pipe(shieldd.SessionOptions{Seed: 7, Protocol: cv})
					})
					defer c.Close()
					if got, wantV := c.Version(), min(cv, sv); got != wantV {
						t.Errorf("negotiated v%d, want v%d", got, wantV)
					}
					if got := clientPair(t, c); got != want {
						t.Errorf("session results %+v != in-process %+v", got, want)
					}
				})
			}
		}
	})

	t.Run("datagram", func(t *testing.T) {
		for sv := uint8(1); sv <= wire.Version; sv++ {
			nw := faultnet.New(40+int64(sv), faultnet.Impairment{})
			defer nw.Close()
			startPacketServer(t, nw, "server", shieldd.ServerConfig{MaxProtocol: sv})
			for cv := uint8(1); cv <= wire.Version; cv++ {
				t.Run(fmt.Sprintf("c%d_s%d", cv, sv), func(t *testing.T) {
					pc, err := nw.Listen(fmt.Sprintf("mx-%d-%d", cv, sv))
					if err != nil {
						t.Fatal(err)
					}
					c := dialCellErr(t, func() (*shieldd.Client, error) {
						return shieldd.NewPacketClient(pc, faultnet.Addr("server"), testSecret,
							shieldd.SessionOptions{Seed: 7, Protocol: cv,
								RetryTimeout: 20 * time.Millisecond, MaxRetries: 5})
					})
					if cv < 2 || sv < 2 {
						// Datagram transport is v2+: a v1 cap on either side
						// must refuse cleanly (client-side for cv=1, a
						// plaintext server error for sv=1).
						if c.err == nil {
							c.c.Close()
							t.Fatalf("v%d×v%d datagram session completed, want refusal", cv, sv)
						}
						pc.Close()
						return
					}
					if c.err != nil {
						t.Fatalf("datagram dial: %v", c.err)
					}
					defer c.c.Close()
					if got, wantV := c.c.Version(), min(cv, sv); got != wantV {
						t.Errorf("negotiated v%d, want v%d", got, wantV)
					}
					if got := clientPair(t, c.c); got != want {
						t.Errorf("session results %+v != in-process %+v", got, want)
					}
				})
			}
		}
	})
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

// TestMinProtocolRefusesOldServer: a client pinned to MinProtocol=4
// must refuse to complete a session against a server capped below v4,
// with the typed downgrade error — the deployment switch that makes
// forward secrecy mandatory.
func TestMinProtocolRefusesOldServer(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{MaxProtocol: 3})
	_, err := srv.Pipe(shieldd.SessionOptions{Seed: 1, MinProtocol: 4})
	if !errors.Is(err, shieldd.ErrDowngrade) {
		t.Fatalf("pinned client against v3 server: err = %v, want ErrDowngrade", err)
	}
	// The same pin against a current server completes at v4.
	full := newServer(t, shieldd.ServerConfig{})
	c, err := full.Pipe(shieldd.SessionOptions{Seed: 1, MinProtocol: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Version() != 4 {
		t.Fatalf("negotiated v%d, want v4", c.Version())
	}
	if c.Resumed() {
		t.Fatal("fresh session reports itself resumed")
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
