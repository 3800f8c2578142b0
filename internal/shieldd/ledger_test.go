package shieldd

import (
	"cmp"
	"net"
	"slices"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/securelink"
	"heartshield/internal/wire"
)

// expectClaim checks what a ledger claim tells the reader to do:
// "fresh" (execute), "cached" (re-send the returned answer) or "drop".
func expectClaim(t *testing.T, l *ledger, id, cum uint64, want string) wire.Message {
	t.Helper()
	fresh, cached := l.claim(id, cum)
	got := "drop"
	switch {
	case fresh:
		got = "fresh"
	case cached != nil:
		got = "cached"
	}
	if got != want {
		t.Fatalf("claim(%d, cum %d) = %s, want %s", id, cum, got, want)
	}
	return cached
}

// expectIDs checks the IDs of released envelopes, in release order.
func expectIDs(t *testing.T, what string, es []envelope, want ...uint64) {
	t.Helper()
	var got []uint64
	for _, e := range es {
		got = append(got, e.id)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s released %v, want %v", what, got, want)
	}
}

func TestLedger(t *testing.T) {
	pong := &wire.Pong{Token: 7}
	exchange := func(id uint64) envelope { return envelope{id: id, msg: &wire.ExchangeReq{}} }
	tests := []struct {
		name string
		run  func(t *testing.T, l *ledger)
	}{
		{"duplicate of an in-flight ID is dropped", func(t *testing.T, l *ledger) {
			expectClaim(t, l, 1, 0, "fresh")
			expectClaim(t, l, 1, 0, "drop")
		}},
		{"duplicate of an answered ID returns the cached answer", func(t *testing.T, l *ledger) {
			expectClaim(t, l, 1, 0, "fresh")
			l.complete(envelope{id: 1, msg: pong})
			if got := expectClaim(t, l, 1, 0, "cached"); got != pong {
				t.Fatalf("cached answer %v, want %v", got, pong)
			}
		}},
		{"ID at or below the client's cum is dropped", func(t *testing.T, l *ledger) {
			expectClaim(t, l, 1, 0, "fresh")
			l.complete(envelope{id: 1, msg: pong})
			expectClaim(t, l, 2, 1, "fresh") // prunes the answer to 1
			expectClaim(t, l, 1, 1, "drop")
			expectClaim(t, l, 3, 3, "drop")
			expectClaim(t, l, 4, 3, "fresh")
		}},
		{"ID past the horizon is dropped", func(t *testing.T, l *ledger) {
			expectClaim(t, l, 300, 0, "fresh")
			expectClaim(t, l, 300-dedupCacheCap, 0, "drop")
			expectClaim(t, l, 301-dedupCacheCap, 0, "fresh")
		}},
		{"spent ID below the cursor is dropped once its answer is gone", func(t *testing.T, l *ledger) {
			// Answer 2..257 before 1, so the FIFO evicts 2 while 2 is
			// still inside the horizon: only the cursor marks it spent.
			for id := uint64(1); id <= dedupCacheCap+1; id++ {
				expectClaim(t, l, id, 0, "fresh")
				l.skip(id)
			}
			for id := uint64(2); id <= dedupCacheCap+1; id++ {
				l.complete(envelope{id: id, msg: pong})
			}
			l.complete(envelope{id: 1, msg: pong})
			expectClaim(t, l, 1, 0, "cached")
			expectClaim(t, l, 2, 0, "drop")
		}},
		{"ordered ID above a gap is held until a skip fills the gap", func(t *testing.T, l *ledger) {
			expectClaim(t, l, 2, 0, "fresh")
			expectIDs(t, "submit(2)", l.submit(exchange(2)))
			expectClaim(t, l, 3, 0, "fresh")
			expectIDs(t, "submit(3)", l.submit(exchange(3)))
			if n, cum := l.pending(), l.next-1; n != 2 || cum != 0 {
				t.Fatalf("pending %d, cum %d; want 2, 0", n, cum)
			}
			expectClaim(t, l, 1, 0, "fresh")
			expectIDs(t, "skip(1)", l.skip(1), 2, 3)
			if n, cum := l.pending(), l.complete(envelope{id: 1, msg: pong}); n != 0 || cum != 3 {
				t.Fatalf("pending %d, cum %d; want 0, 3", n, cum)
			}
		}},
		{"partials are never cached", func(t *testing.T, l *ledger) {
			expectClaim(t, l, 1, 0, "fresh")
			l.complete(envelope{id: 1, msg: &wire.ExperimentProgress{Done: 64, Total: 200}, partial: true})
			expectClaim(t, l, 1, 0, "drop") // still in flight
			final := &wire.ExperimentResp{Rendered: "fig7"}
			l.complete(envelope{id: 1, msg: final})
			if got := expectClaim(t, l, 1, 0, "cached"); got != final {
				t.Fatalf("cached answer %v, want the final response", got)
			}
		}},
		{"discard returns every held envelope", func(t *testing.T, l *ledger) {
			for _, id := range []uint64{2, 3, 5} {
				expectClaim(t, l, id, 0, "fresh")
				l.submit(exchange(id))
			}
			held := l.discard()
			slices.SortFunc(held, func(a, b envelope) int { return cmp.Compare(a.id, b.id) })
			expectIDs(t, "discard", held, 2, 3, 5)
			if n := l.pending(); n != 0 {
				t.Fatalf("pending %d after discard", n)
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) { tt.run(t, newLedger()) })
	}
}

// TestReusedRequestIDCannotWedgeSession: an authenticated peer that
// reuses a spent request ID for EXCHANGE frames must get the cached
// answer and run nothing, on every transport. A reused ID that took a
// window slot would never release it: with a 2-request window, later
// requests would go unanswered, the reaper would count the session busy,
// and teardown would wait for the slots forever.
func TestReusedRequestIDCannotWedgeSession(t *testing.T) {
	secret := []byte("ledger-test-secret")
	opt := SessionOptions{Seed: 1}
	for _, tr := range []struct {
		name string
		dial func(t *testing.T, srv *Server) (transportConn, hsResult, error)
	}{
		{"stream", func(t *testing.T, srv *Server) (transportConn, hsResult, error) {
			cEnd, sEnd := net.Pipe()
			go srv.ServeConn(sEnd)
			// Bounds every write: a wedged server reader stops draining
			// the pipe.
			_ = cEnd.SetDeadline(time.Now().Add(10 * time.Second))
			return streamSession(cEnd, secret, opt, nil)
		}},
		{"datagram", func(t *testing.T, srv *Server) (transportConn, hsResult, error) {
			nw := faultnet.New(1, faultnet.Impairment{})
			t.Cleanup(func() { nw.Close() })
			spc, err := nw.Listen("server")
			if err != nil {
				t.Fatal(err)
			}
			go srv.ServePacket(spc)
			cpc, err := nw.Listen("client")
			if err != nil {
				t.Fatal(err)
			}
			return packetSession(cpc, faultnet.Addr("server"), secret, opt, nil)
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			srv, err := NewServer(ServerConfig{Secret: secret, InFlightPerSession: 2, IdleTimeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			tc, hs, err := tr.dial(t, srv)
			if err != nil {
				t.Fatal(err)
			}
			send := func(id uint64, m wire.Message) {
				t.Helper()
				if err := tc.writeFrame(hs.link.Seal(wire.EncodeEnvelopeV3(id, 0, 0, m))); err != nil {
					t.Fatalf("send id %d: %v", id, err)
				}
			}
			expect := func(id uint64, token uint64) {
				t.Helper()
				_ = tc.setReadDeadline(time.Now().Add(5 * time.Second))
				for {
					raw, handshake, err := tc.readFrame()
					if err != nil {
						t.Fatalf("waiting for the Pong to id %d: %v", id, err)
					}
					if handshake {
						continue
					}
					gotID, got := openResponse(t, hs.link, raw)
					if pong, ok := got.(*wire.Pong); !ok || gotID != id || pong.Token != token {
						t.Fatalf("got id %d %T %+v, want id %d Pong{%d}", gotID, got, got, id, token)
					}
					return
				}
			}

			send(1, &wire.Ping{Token: 11})
			expect(1, 11)
			// Two EXCHANGEs reusing the spent ID, in distinct sealed
			// frames: each gets the cached Pong and runs nothing.
			exchange := &wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate}
			send(1, exchange)
			expect(1, 11)
			send(1, exchange)
			expect(1, 11)
			send(2, &wire.Ping{Token: 22})
			expect(2, 22)

			tc.close()
			deadline := time.Now().Add(5 * time.Second)
			for {
				m := srv.Metrics()
				if m.ActiveSessions == 0 && m.LiveInFlight == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("session never ended: ActiveSessions=%d LiveInFlight=%d", m.ActiveSessions, m.LiveInFlight)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if n := srv.Metrics().TotalExchanges; n != 0 {
				t.Fatalf("reused request IDs ran %d exchanges", n)
			}
		})
	}
}

// openResponse opens and decodes one sealed response frame.
func openResponse(t *testing.T, link *securelink.Link, raw []byte) (uint64, wire.Message) {
	t.Helper()
	plain, err := link.Open(raw)
	if err != nil {
		t.Fatalf("open response: %v", err)
	}
	id, _, _, msg, err := wire.DecodeEnvelopeV3(plain)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return id, msg
}
