// Package metrics holds the counters the shieldd session server exports:
// per-session request/traffic counters (the STATUS-METRICS frame) and
// server-wide aggregates (the cmd/shieldd -metrics periodic dump and the
// STATUS frame). Everything is lock-free atomics, so handlers on the hot
// path pay one uncontended atomic add per event and snapshots can be
// taken from any goroutine at any time.
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Session counts one session's served requests and tracks its pipelining
// depth. All methods are safe for concurrent use.
type Session struct {
	Exchanges        atomic.Uint64 // single EXCHANGE frames
	Batches          atomic.Uint64 // BATCH-EXCHANGE frames
	BatchedExchanges atomic.Uint64 // exchanges inside those batches
	Attacks          atomic.Uint64
	Experiments      atomic.Uint64
	Pings            atomic.Uint64
	Errors           atomic.Uint64 // requests answered with an Error frame
	Retransmits      atomic.Uint64 // answers re-sent from the request ledger to repeated IDs
	Shed             atomic.Uint64 // requests answered BUSY by the admission gate
	ProgressFrames   atomic.Uint64 // streamed EXPERIMENT-PROGRESS frames

	inFlight    atomic.Int64
	inFlightHWM atomic.Int64
}

// EnterFlight records a request entering the session's in-flight window
// and updates the high-water mark.
func (s *Session) EnterFlight() {
	n := s.inFlight.Add(1)
	for {
		hwm := s.inFlightHWM.Load()
		if n <= hwm || s.inFlightHWM.CompareAndSwap(hwm, n) {
			return
		}
	}
}

// LeaveFlight records a request leaving the in-flight window.
func (s *Session) LeaveFlight() { s.inFlight.Add(-1) }

// InFlight returns the current number of in-flight requests.
func (s *Session) InFlight() int64 { return s.inFlight.Load() }

// InFlightHWM returns the in-flight high-water mark.
func (s *Session) InFlightHWM() int64 { return s.inFlightHWM.Load() }

// Registry tracks the live sessions of one server so a metrics scrape
// can aggregate their gauges (in-flight depth, live counts) without
// waiting for sessions to end. Sessions register once at admission and
// unregister at teardown — two mutex operations per session lifetime —
// while scrapes take only a read lock and perform atomic loads, so the
// scrape path allocates nothing and never blocks session traffic.
type Registry struct {
	mu       sync.RWMutex
	sessions map[uint64]*Session
}

// NewRegistry returns an empty live-session registry.
func NewRegistry() *Registry {
	return &Registry{sessions: make(map[uint64]*Session)}
}

// Register adds a session's counters under its session ID.
func (r *Registry) Register(id uint64, s *Session) {
	r.mu.Lock()
	r.sessions[id] = s
	r.mu.Unlock()
}

// Unregister removes a session at teardown.
func (r *Registry) Unregister(id uint64) {
	r.mu.Lock()
	delete(r.sessions, id)
	r.mu.Unlock()
}

// Len reports the number of registered (live) sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// LiveSnapshot aggregates the registered sessions' gauges at one instant.
type LiveSnapshot struct {
	// Sessions is the number of registered sessions.
	Sessions int
	// InFlight is the total number of requests in flight across them.
	InFlight int64
	// InFlightHWM is the largest per-session in-flight high-water mark.
	InFlightHWM int64
}

// Live sweeps the registered sessions with atomic loads under a read
// lock: zero allocations regardless of session count, so the scrape
// path stays cheap at fleet scale.
func (r *Registry) Live() LiveSnapshot {
	var ls LiveSnapshot
	r.mu.RLock()
	ls.Sessions = len(r.sessions)
	for _, s := range r.sessions {
		ls.InFlight += s.inFlight.Load()
		if hwm := s.inFlightHWM.Load(); hwm > ls.InFlightHWM {
			ls.InFlightHWM = hwm
		}
	}
	r.mu.RUnlock()
	return ls
}

// Server aggregates counters across every session a server has run.
type Server struct {
	TotalSessions  atomic.Uint64
	ActiveSessions atomic.Int64
	ReapedSessions atomic.Uint64 // sessions closed by the idle reaper

	TotalExchanges   atomic.Uint64 // single + batched exchanges
	TotalBatches     atomic.Uint64
	TotalAttacks     atomic.Uint64
	TotalExperiments atomic.Uint64
	TotalPings       atomic.Uint64
	// TotalRetransmits counts answers re-sent from session request
	// ledgers, server-wide: the server-side cost of transport loss.
	TotalRetransmits atomic.Uint64
	// TotalProgressFrames counts streamed EXPERIMENT-PROGRESS frames
	// written to sessions, server-wide.
	TotalProgressFrames atomic.Uint64

	// Link traffic, absorbed from each session's securelink stats when
	// the session ends. ReplayDrops counts duplicates of accepted
	// frames, LateDrops counts frames that fell behind the receive
	// window, WindowAccepts counts out-of-order frames the window
	// absorbed — together the loss story of the datagram transport.
	BytesSealed   atomic.Uint64
	BytesOpened   atomic.Uint64
	Rekeys        atomic.Uint64
	ReplayDrops   atomic.Uint64
	LateDrops     atomic.Uint64
	WindowAccepts atomic.Uint64

	// Overload/admission counters. CookiesSent and CookieRejects meter
	// the stateless-cookie gate on datagram handshakes; ShedHandshakes
	// and ShedRequests count BUSY answers at admission and inside
	// sessions; RateLimited counts handshake datagrams the per-peer
	// token bucket silently dropped.
	CookiesSent    atomic.Uint64
	CookieRejects  atomic.Uint64
	ShedHandshakes atomic.Uint64
	ShedRequests   atomic.Uint64
	RateLimited    atomic.Uint64
}

// ServerSnapshot is a point-in-time copy of a Server's counters.
type ServerSnapshot struct {
	TotalSessions    uint64
	ActiveSessions   int64
	ReapedSessions   uint64
	TotalExchanges   uint64
	TotalBatches     uint64
	TotalAttacks     uint64
	TotalExperiments uint64
	TotalPings       uint64
	TotalRetransmits uint64
	// TotalProgressFrames counts streamed EXPERIMENT-PROGRESS frames
	// written to sessions.
	TotalProgressFrames uint64
	BytesSealed         uint64
	BytesOpened         uint64
	Rekeys              uint64
	ReplayDrops         uint64
	LateDrops           uint64
	WindowAccepts       uint64
	CookiesSent         uint64
	CookieRejects       uint64
	ShedHandshakes      uint64
	ShedRequests        uint64
	RateLimited         uint64
	// PooledScenarios is the idle scenario-pool depth; LiveSessions,
	// LiveInFlight, and LiveInFlightHWM aggregate the registered live
	// sessions' gauges. Filled by the server's Metrics() from its pool
	// and session registry — Snapshot() alone leaves them zero.
	PooledScenarios int
	LiveSessions    int
	LiveInFlight    int64
	LiveInFlightHWM int64
}

// Snapshot copies the server counters.
func (m *Server) Snapshot() ServerSnapshot {
	return ServerSnapshot{
		TotalSessions:       m.TotalSessions.Load(),
		ActiveSessions:      m.ActiveSessions.Load(),
		ReapedSessions:      m.ReapedSessions.Load(),
		TotalExchanges:      m.TotalExchanges.Load(),
		TotalBatches:        m.TotalBatches.Load(),
		TotalAttacks:        m.TotalAttacks.Load(),
		TotalExperiments:    m.TotalExperiments.Load(),
		TotalPings:          m.TotalPings.Load(),
		TotalRetransmits:    m.TotalRetransmits.Load(),
		TotalProgressFrames: m.TotalProgressFrames.Load(),
		BytesSealed:         m.BytesSealed.Load(),
		BytesOpened:         m.BytesOpened.Load(),
		Rekeys:              m.Rekeys.Load(),
		ReplayDrops:         m.ReplayDrops.Load(),
		LateDrops:           m.LateDrops.Load(),
		WindowAccepts:       m.WindowAccepts.Load(),
		CookiesSent:         m.CookiesSent.Load(),
		CookieRejects:       m.CookieRejects.Load(),
		ShedHandshakes:      m.ShedHandshakes.Load(),
		ShedRequests:        m.ShedRequests.Load(),
		RateLimited:         m.RateLimited.Load(),
	}
}

// String renders the snapshot as one human-readable line, the format the
// cmd/shieldd -metrics periodic dump prints.
func (s ServerSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d active=%d reaped=%d", s.TotalSessions, s.ActiveSessions, s.ReapedSessions)
	fmt.Fprintf(&b, " exchanges=%d batches=%d attacks=%d experiments=%d pings=%d retransmits=%d progressFrames=%d",
		s.TotalExchanges, s.TotalBatches, s.TotalAttacks, s.TotalExperiments, s.TotalPings, s.TotalRetransmits, s.TotalProgressFrames)
	fmt.Fprintf(&b, " sealedB=%d openedB=%d rekeys=%d replayDrops=%d lateDrops=%d windowAccepts=%d",
		s.BytesSealed, s.BytesOpened, s.Rekeys, s.ReplayDrops, s.LateDrops, s.WindowAccepts)
	fmt.Fprintf(&b, " cookiesSent=%d cookieRejects=%d shedHandshakes=%d shedRequests=%d rateLimited=%d",
		s.CookiesSent, s.CookieRejects, s.ShedHandshakes, s.ShedRequests, s.RateLimited)
	fmt.Fprintf(&b, " pooled=%d live=%d inflight=%d inflightHWM=%d",
		s.PooledScenarios, s.LiveSessions, s.LiveInFlight, s.LiveInFlightHWM)
	return b.String()
}
