package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"heartshield"
	"heartshield/internal/shieldd"
)

var secret = []byte("heartbench provisioned secret")

// fixture is an in-process heartshield.Server listening on real loopback
// sockets, TCP and UDP.
type fixture struct {
	srv *heartshield.Server
	tcp net.Listener
	udp net.PacketConn
	wg  sync.WaitGroup

	mu sync.Mutex
	cs clientStats
}

func startServer() (*fixture, error) {
	srv, err := heartshield.NewServer(heartshield.ServeOptions{Secret: secret})
	if err != nil {
		return nil, err
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		tcp.Close()
		return nil, err
	}
	f := &fixture{srv: srv, tcp: tcp, udp: udp}
	f.wg.Add(2)
	go func() { defer f.wg.Done(); _ = srv.Serve(tcp) }()
	go func() { defer f.wg.Done(); _ = srv.ServePacket(udp) }()
	return f, nil
}

// dial opens a session over UDP or TCP.
func (f *fixture) dial(udp bool, seed int64) (*shieldd.Client, error) {
	opt := shieldd.SessionOptions{Seed: seed}
	if udp {
		return shieldd.DialUDP(f.udp.LocalAddr().String(), secret, opt)
	}
	return shieldd.Dial(f.tcp.Addr().String(), secret, opt)
}

// hangUp folds a client's link and transport counters into the fixture's
// totals and closes it.
func (f *fixture) hangUp(c *shieldd.Client) error {
	ls, ts := c.LinkStats(), c.TransportStats()
	f.mu.Lock()
	f.cs.windowAccepts += ls.WindowAccepts
	f.cs.lateDrops += ls.LateDrops
	f.cs.replayDrops += ls.ReplayDrops
	f.cs.rekeys += ls.Rekeys
	f.cs.retransmits += ts.Retransmits
	f.mu.Unlock()
	return c.Close()
}

// drain waits until the server has ended every session, so that its
// counters include every session's link traffic.
func (f *fixture) drain() (heartshield.ServerMetrics, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := f.srv.Metrics()
		if m.ActiveSessions == 0 {
			return m, nil
		}
		if time.Now().After(deadline) {
			return m, fmt.Errorf("%d sessions still active after every client closed", m.ActiveSessions)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop closes the listeners and waits for the accept loops to return.
func (f *fixture) stop() {
	f.tcp.Close()
	f.udp.Close()
	f.wg.Wait()
}

// clientStats sums the client-side counters of closed sessions.
type clientStats struct {
	windowAccepts, lateDrops, replayDrops, rekeys, retransmits uint64
}
