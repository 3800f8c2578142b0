package shieldd

import (
	"sync"

	"heartshield/internal/wire"
)

// dedupCacheCap bounds the per-session cache of answered responses, and
// is the horizon below the highest claimed ID past which a request ID
// is never executed. It must exceed the in-flight window by enough
// margin that a response can still be re-sent for any request the
// client could plausibly retransmit.
const dedupCacheCap = 256

// ledger is everything the server knows about one session's request
// IDs, on every transport. It is what makes execution exactly-once AND
// in ID order over an at-least-once, reordering network:
//
//   - exactly once: the reader claims every ID before it takes a window
//     slot. A claim of an ID that is still in flight is dropped, and one
//     that was already answered gets its cached answer re-sent; neither
//     touches the scenario, since re-execution would fork the
//     deterministic per-seed result stream.
//   - in order: the deterministic result contract is (seed, request
//     sequence) → results, and the request sequence is the client's ID
//     assignment, not arrival order. Ordered requests (EXCHANGE,
//     BATCH-EXCHANGE, ATTACK-TRIAL, BYE) are submitted and released to
//     the executor only once every lower ID is accounted for; every
//     other ID is skipped past as it is answered. A request above a gap
//     is held until the gap's retransmit lands.
//
// An ID is spent once claimed. Every ID below the sequencing cursor has
// been claimed, so a claim below the cursor whose answer is no longer
// cached is a reused ID and is dropped before it can take a window
// slot: a peer that reuses spent IDs can never run a request twice or
// wedge the window.
//
// Only the session's reader calls claim, submit and skip, so the
// envelopes they release are handed to the executor in ID order.
type ledger struct {
	mu       sync.Mutex
	next     uint64                  // sequencing cursor: lowest ID not yet accounted for
	held     map[uint64]envelope     // ordered requests waiting on a lower gap
	skips    map[uint64]struct{}     // non-ordered IDs accounted for above the cursor
	inflight map[uint64]struct{}     // claimed, not yet answered
	done     map[uint64]wire.Message // answered, kept for re-sending
	order    []uint64                // done FIFO eviction order
	maxID    uint64                  // highest ID ever claimed
	pruned   uint64                  // IDs <= pruned are client-confirmed delivered
}

func newLedger() *ledger {
	return &ledger{
		next:     1, // client request IDs start at 1 on every session
		held:     make(map[uint64]envelope),
		skips:    make(map[uint64]struct{}),
		inflight: make(map[uint64]struct{}),
		done:     make(map[uint64]wire.Message),
	}
}

// orderedKind reports whether a request kind executes against the
// scenario in ID order. Everything else (PING, STATUS, METRICS,
// EXPERIMENT, and reader-answered errors/BUSY) is answered as it
// arrives and only moves the cursor.
func orderedKind(kind byte) bool {
	switch kind {
	case wire.KindExchangeReq, wire.KindBatchReq, wire.KindAttackReq, wire.KindBye:
		return true
	}
	return false
}

// claim admits request id from an envelope carrying the client's
// delivery report cum. fresh means execute it; cached non-nil means
// re-send that answer; neither means drop the request.
func (l *ledger) claim(id, cum uint64) (fresh bool, cached wire.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.prune(cum)
	if msg, ok := l.done[id]; ok {
		return false, msg
	}
	if _, ok := l.inflight[id]; ok {
		return false, nil
	}
	// Dropped without an answer: IDs the client confirmed delivered
	// (a stale retransmit), spent IDs below the cursor whose answer is
	// gone, and IDs so far below the highest claimed that their answer
	// may have been evicted — executing any of them could run a request
	// twice. The client's retry schedule surfaces the drop as a timeout;
	// sequential client IDs never trip these in a live pipeline.
	if id <= l.pruned || id < l.next || l.maxID >= dedupCacheCap && id <= l.maxID-dedupCacheCap {
		return false, nil
	}
	if id > l.maxID {
		l.maxID = id
	}
	l.inflight[id] = struct{}{}
	return true, nil
}

// prune drops answers at or below the client's cumulative delivery
// report: the client will never ask for them again, so the cache holds
// only the window's worth of answers a live pipeline can still
// retransmit into. Callers hold l.mu.
func (l *ledger) prune(cum uint64) {
	if cum <= l.pruned {
		return
	}
	l.pruned = cum
	keep := l.order[:0]
	for _, id := range l.order {
		if id <= cum {
			delete(l.done, id)
		} else {
			keep = append(keep, id)
		}
	}
	l.order = keep
}

// complete records the answer the writer is sending and returns the
// cumulative-progress report to send with it: the highest request ID
// through which every request has been received and sequenced. Partial
// frames are not answers: a cached partial would be re-sent in place of
// the final response forever.
func (l *ledger) complete(e envelope) (cum uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !e.partial {
		delete(l.inflight, e.id)
		if _, ok := l.done[e.id]; !ok {
			l.done[e.id] = e.msg
			l.order = append(l.order, e.id)
			if len(l.order) > dedupCacheCap {
				delete(l.done, l.order[0])
				l.order = l.order[1:]
			}
		}
	}
	return l.next - 1
}

// submit sequences a freshly claimed ordered request and returns the
// envelopes now released for execution, in ID order: nothing if the
// request is above a gap (it is held), or the request itself plus any
// directly following held run once the cursor reaches it.
func (l *ledger) submit(e envelope) []envelope {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.held[e.id] = e
	return l.advance()
}

// skip accounts for a freshly claimed ID that will never reach the
// executor (a non-ordered request, or one the reader answered with
// BUSY/Error) and returns any held run the moved cursor releases.
func (l *ledger) skip(id uint64) []envelope {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.skips[id] = struct{}{}
	return l.advance()
}

// advance walks the cursor over every accounted-for ID and collects the
// ordered envelopes it releases. Callers hold l.mu.
func (l *ledger) advance() []envelope {
	var released []envelope
	for {
		if _, ok := l.skips[l.next]; ok {
			delete(l.skips, l.next)
			l.next++
			continue
		}
		if e, ok := l.held[l.next]; ok {
			delete(l.held, l.next)
			released = append(released, e)
			l.next++
			continue
		}
		return released
	}
}

// pending is the number of ordered requests held on a gap. The session
// reaper subtracts it from the in-flight count: a client that died with
// a gap outstanding leaves its held requests holding window slots
// forever, and they must not count as liveness.
func (l *ledger) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.held)
}

// discard empties the held requests at session teardown and returns
// them, so shutdown can release the window slots of requests that will
// never execute.
func (l *ledger) discard() []envelope {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]envelope, 0, len(l.held))
	for _, e := range l.held {
		out = append(out, e)
	}
	l.held = make(map[uint64]envelope)
	return out
}
