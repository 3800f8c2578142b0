package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"heartshield"
	"heartshield/internal/shieldd"
	"heartshield/internal/stats"
	"heartshield/internal/testbed"
	"heartshield/internal/wire"
)

// nproc sizes every workload: at most this many sessions, workers or
// connections at once.
var nproc = runtime.NumCPU()

// workload is one closed-loop traffic mix.
type workload interface {
	// setup builds the workload's fixture and runs one warm-up operation
	// on each of its sessions or workers.
	setup(seed int64) error
	// drive runs the closed loop until the deadline has passed.
	drive(until time.Time) *tally
	// finish closes every session, checks the workload's outputs, and
	// returns the server's final counters. It also cleans up after a
	// failed setup.
	finish() (counts, error)
	// message is the wire message the workload sends most; the serving
	// micro-costs are measured on it.
	message() wire.Message
}

// counts are the serving-tier counters of one workload fixture.
type counts struct {
	server heartshield.ServerMetrics
	client clientStats
}

var workloads = map[string]func() workload{
	"exchange":  func() workload { return &exchangeLoad{} },
	"control":   func() workload { return &controlLoad{} },
	"churn":     func() workload { return &churnLoad{} },
	"reproduce": func() workload { return &reproduceLoad{} },
}

// parallel runs n workers, sharing one tally, to completion.
func parallel(n int, worker func(i int, t *tally)) *tally {
	var t tally
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker(i, &t)
		}(i)
	}
	wg.Wait()
	return &t
}

// closeFixture hangs up every client, waits for the server to end their
// sessions, and stops it.
func closeFixture(fx *fixture, clients []*shieldd.Client) (counts, error) {
	if fx == nil {
		return counts{}, nil
	}
	var errs []error
	for _, c := range clients {
		errs = append(errs, fx.hangUp(c))
	}
	m, err := fx.drain()
	fx.stop()
	return counts{server: m, client: fx.cs}, errors.Join(append(errs, err)...)
}

// --- exchange ------------------------------------------------------------

// replayPrefix is how many reports per session the exchange check replays
// through an in-process Simulation.
const replayPrefix = 48

// exchangeLoad runs nproc UDP sessions, each issuing protected Interrogate
// exchanges back to back.
type exchangeLoad struct {
	fx      *fixture
	clients []*shieldd.Client
	seeds   []int64
	streams [][]exchangeRecord
}

func (w *exchangeLoad) setup(seed int64) error {
	fx, err := startServer()
	if err != nil {
		return err
	}
	w.fx = fx
	w.streams = make([][]exchangeRecord, nproc)
	for i := 0; i < nproc; i++ {
		s := stats.TrialSeed(seed, i)
		c, err := fx.dial(true, s)
		if err != nil {
			return err
		}
		w.clients = append(w.clients, c)
		w.seeds = append(w.seeds, s)
	}
	for i := range w.clients {
		if err := w.exchange(i); classify(err) == opFailed {
			return err
		}
	}
	return nil
}

func (w *exchangeLoad) exchange(i int) error {
	m, err := w.clients[i].Go(&wire.ExchangeReq{Cmd: wire.CmdInterrogate}).Wait()
	rec, err := recordWire(m, err)
	if classify(err) != opFailed && len(w.streams[i]) < replayPrefix {
		w.streams[i] = append(w.streams[i], rec)
	}
	return err
}

func (w *exchangeLoad) drive(until time.Time) *tally {
	return parallel(len(w.clients), func(i int, t *tally) {
		for time.Now().Before(until) {
			t0 := time.Now()
			err := w.exchange(i)
			t.record(time.Since(t0), err)
		}
	})
}

// finish checks that each session's report stream replays exactly through
// an in-process Simulation at the session's seed.
func (w *exchangeLoad) finish() (counts, error) {
	cnt, err := closeFixture(w.fx, w.clients)
	if err != nil {
		return cnt, err
	}
	for i, seed := range w.seeds {
		sim := heartshield.NewSimulation(heartshield.SimOptions{Seed: seed})
		for j, got := range w.streams[i] {
			want := recordReport(sim.ProtectedExchange(heartshield.Interrogate))
			if !got.equal(want) {
				return cnt, fmt.Errorf("session seed %d report %d: served %+v, simulation %+v", seed, j, got, want)
			}
		}
	}
	return cnt, nil
}

func (w *exchangeLoad) message() wire.Message {
	r := w.streams[0][0]
	for _, rec := range w.streams[0] {
		if rec.err == "" {
			r = rec
			break
		}
	}
	return &wire.ExchangeResp{Response: r.response, ResponseCommand: r.command, EavesBER: r.ber, CancellationDB: r.cancelDB}
}

// exchangeRecord is the part of an exchange result that must replay
// exactly.
type exchangeRecord struct {
	response      []byte
	command       string
	ber, cancelDB float64
	err           string
}

func (r exchangeRecord) equal(o exchangeRecord) bool {
	return bytes.Equal(r.response, o.response) && r.command == o.command &&
		r.ber == o.ber && r.cancelDB == o.cancelDB && r.err == o.err
}

// recordWire reads a served exchange; a simulated loss becomes a record
// carrying the testbed error text and keeps its error for classification.
func recordWire(m wire.Message, err error) (exchangeRecord, error) {
	var we *wire.Error
	if errors.As(err, &we) {
		return exchangeRecord{err: we.Msg}, err
	}
	if err != nil {
		return exchangeRecord{}, err
	}
	resp, ok := m.(*wire.ExchangeResp)
	if !ok {
		return exchangeRecord{}, fmt.Errorf("exchange answered with %T", m)
	}
	return exchangeRecord{response: resp.Response, command: resp.ResponseCommand, ber: resp.EavesBER, cancelDB: resp.CancellationDB}, nil
}

// recordReport reads an in-process Simulation exchange.
func recordReport(rep heartshield.ExchangeReport, err error) exchangeRecord {
	if err != nil {
		return exchangeRecord{err: errors.Unwrap(err).Error()}
	}
	return exchangeRecord{response: rep.Response, command: rep.ResponseCommand, ber: rep.EavesdropperBER, cancelDB: rep.CancellationDB}
}

// recordOutcome reads a testbed exchange.
func recordOutcome(out testbed.ExchangeOutcome, err error) exchangeRecord {
	if err != nil {
		return exchangeRecord{err: err.Error()}
	}
	return exchangeRecord{response: out.Response.Payload, command: out.Response.Command.String(), ber: out.EavesdropperBER, cancelDB: out.CancellationDB}
}

// --- control -------------------------------------------------------------

const (
	// pipelineDepth is how many requests each control session keeps in
	// flight.
	pipelineDepth = 8
	// scrapeEvery makes every 64th control request a SessionMetrics
	// scrape instead of a Ping.
	scrapeEvery = 64
)

// controlLoad runs one UDP and one TCP session, each keeping
// pipelineDepth Pings in flight: the serving tier with a no-op handler.
type controlLoad struct {
	fx      *fixture
	clients []*shieldd.Client
	pings   atomic.Uint64 // pings answered with the right token
}

func (w *controlLoad) setup(seed int64) error {
	fx, err := startServer()
	if err != nil {
		return err
	}
	w.fx = fx
	for i, udp := range []bool{true, false} {
		c, err := fx.dial(udp, stats.TrialSeed(seed, i))
		if err != nil {
			return err
		}
		w.clients = append(w.clients, c)
	}
	for _, c := range w.clients {
		m, err := c.Go(&wire.Ping{Token: 1}).Wait()
		if err := pong(m, err, 1); err != nil {
			return err
		}
		w.pings.Add(1)
	}
	return nil
}

// pong checks that a Ping's answer echoes its token.
func pong(m wire.Message, err error, token uint64) error {
	if err != nil {
		return err
	}
	if p, ok := m.(*wire.Pong); !ok || p.Token != token {
		return fmt.Errorf("ping %d answered with %+v", token, m)
	}
	return nil
}

func (w *controlLoad) drive(until time.Time) *tally {
	return parallel(len(w.clients), func(i int, t *tally) {
		c := w.clients[i]
		type slot struct {
			call *shieldd.Call
			t0   time.Time
		}
		var seq uint64
		submit := func() slot {
			seq++
			t0 := time.Now()
			if seq%scrapeEvery == 0 {
				return slot{c.Go(&wire.MetricsReq{}), t0}
			}
			return slot{c.Go(&wire.Ping{Token: seq}), t0}
		}
		ring := make([]slot, pipelineDepth)
		for k := range ring {
			ring[k] = submit()
		}
		// Responses come back in submission order on both transports
		// (pings and scrapes are answered by the reader fast path), so
		// waiting on the oldest request times each one.
		for k, live := 0, pipelineDepth; live > 0; k = (k + 1) % pipelineDepth {
			s := ring[k]
			if s.call == nil {
				continue
			}
			<-s.call.Done
			d := time.Since(s.t0)
			err := s.call.Err
			if ping, ok := s.call.Req.(*wire.Ping); ok {
				if err = pong(s.call.Resp, err, ping.Token); err == nil {
					w.pings.Add(1)
				}
			} else if _, ok := s.call.Resp.(*wire.MetricsResp); err == nil && !ok {
				err = fmt.Errorf("metrics scrape answered with %T", s.call.Resp)
			}
			t.record(d, err)
			if time.Now().Before(until) {
				ring[k] = submit()
			} else {
				ring[k] = slot{}
				live--
			}
		}
	})
}

// finish checks the server executed exactly the pings the clients saw
// answered.
func (w *controlLoad) finish() (counts, error) {
	cnt, err := closeFixture(w.fx, w.clients)
	if err != nil {
		return cnt, err
	}
	if got, want := cnt.server.TotalPings, w.pings.Load(); got != want {
		return cnt, fmt.Errorf("server counted %d pings, clients completed %d", got, want)
	}
	return cnt, nil
}

func (w *controlLoad) message() wire.Message { return &wire.Pong{Token: 1 << 20} }

// --- churn ---------------------------------------------------------------

// churnLoad runs nproc workers that each open a session (alternating TCP
// and UDP), send one Ping, and close it.
type churnLoad struct {
	fx    *fixture
	seed  int64
	next  atomic.Int64 // session counter, keys each session's seed
	opens atomic.Uint64
}

func (w *churnLoad) setup(seed int64) error {
	fx, err := startServer()
	if err != nil {
		return err
	}
	w.fx, w.seed = fx, seed
	for i := 0; i < nproc; i++ {
		if err := w.cycle(i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

func (w *churnLoad) cycle(udp bool) error {
	n := w.next.Add(1)
	c, err := w.fx.dial(udp, stats.TrialSeed(w.seed, int(n)))
	if err != nil {
		return err
	}
	w.opens.Add(1)
	m, err := c.Go(&wire.Ping{Token: uint64(n)}).Wait()
	return errors.Join(pong(m, err, uint64(n)), w.fx.hangUp(c))
}

func (w *churnLoad) drive(until time.Time) *tally {
	return parallel(nproc, func(i int, t *tally) {
		for k := 0; time.Now().Before(until); k++ {
			t0 := time.Now()
			err := w.cycle((i+k)%2 == 1)
			t.record(time.Since(t0), err)
		}
	})
}

// finish checks every open became exactly one server session and that
// none is left active.
func (w *churnLoad) finish() (counts, error) {
	cnt, err := closeFixture(w.fx, nil)
	if err != nil {
		return cnt, err
	}
	if got, want := cnt.server.TotalSessions, w.opens.Load(); got != want {
		return cnt, fmt.Errorf("server counted %d sessions, clients opened %d", got, want)
	}
	return cnt, nil
}

func (w *churnLoad) message() wire.Message { return &wire.Pong{Token: 1 << 20} }

// --- reproduce -----------------------------------------------------------

// reproduceLoad runs every registered experiment at Quick with
// Workers=nproc, one experiment per operation, in whole sweeps.
type reproduceLoad struct {
	cfg  heartshield.ExperimentConfig
	exps []heartshield.ExperimentInfo
	// want holds each experiment's expected render: the golden file at
	// seed 1, otherwise the first render of the run.
	want map[string]string
	bad  error
}

func (w *reproduceLoad) setup(seed int64) error {
	w.cfg = heartshield.ExperimentConfig{Seed: seed, Quick: true, Workers: nproc}
	w.exps = heartshield.Experiments()
	w.want = make(map[string]string)
	if seed == 1 {
		for _, e := range w.exps {
			b, err := os.ReadFile(filepath.Join("testdata", "golden", e.Name+".txt"))
			if err != nil {
				return err
			}
			w.want[e.Name] = string(b)
		}
	}
	// Warm-up: one trial per point touches every experiment's code.
	warm := w.cfg
	warm.Trials = 1
	for _, e := range w.exps {
		e.Run(warm).Render()
	}
	return nil
}

// drive runs whole sweeps until the deadline has passed and there are
// enough samples to report p90.
func (w *reproduceLoad) drive(until time.Time) *tally {
	t := &tally{}
	for i := 0; time.Now().Before(until) || i < tailSamples || i%len(w.exps) != 0; i++ {
		e := w.exps[i%len(w.exps)]
		t0 := time.Now()
		out := e.Run(w.cfg).Render()
		t.record(time.Since(t0), nil)
		if want, ok := w.want[e.Name]; !ok {
			w.want[e.Name] = out
		} else if out != want && w.bad == nil {
			w.bad = fmt.Errorf("%s at seed %d rendered differently from its reference (testdata/golden at seed 1, else its first render)", e.Name, w.cfg.Seed)
		}
	}
	return t
}

func (w *reproduceLoad) finish() (counts, error) { return counts{}, w.bad }

func (w *reproduceLoad) message() wire.Message {
	return &wire.ExperimentResp{Rendered: w.want["fig9"]}
}
