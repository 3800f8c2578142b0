package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"heartshield"
	"heartshield/internal/securelink"
	"heartshield/internal/stats"
	"heartshield/internal/testbed"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

const (
	// ledgerWarm rounds run before each replay ledger starts recording.
	ledgerWarm = 4
	// exchangeRounds and attackRounds are the recorded replay rounds.
	exchangeRounds = 64
	attackRounds   = 32
	// openRounds is how many sessions of each transport are opened to
	// time a session open.
	openRounds = 16
	// stageGapTolerancePct bounds how far the stage replay's summed self
	// times may sit from the unwrapped RunProtectedExchange call; beyond
	// it the replay no longer accounts for the exchange and the run fails.
	stageGapTolerancePct = 15
)

// exchangeStages are the spans of one replayed protected exchange, in the
// order testbed.Scenario.RunProtectedExchange makes the calls.
var exchangeStages = []string{
	"testbed.new_trial",
	"shieldcore.estimate_channels",
	"channel.perturb",
	"shieldcore.cancellation_db",
	"shieldcore.place_command",
	"imd.process_window",
	"shieldcore.collect",
	"adversary.intercept_ber",
}

// ledgerExperiments are the experiments whose sweep time is reported.
var ledgerExperiments = []string{"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "table1"}

// Sinks keep measured calls from being optimized away.
var (
	sinkBytes []byte
	sinkMsg   wire.Message
	sinkAny   any
)

// runLedger records the per-layer costs every traced run reports, whatever
// its workload: the physics and attack stage replays, the serving
// micro-costs on msg, the handshake micro-costs, and the experiment sweep.
// It returns how many physics exchanges it ran and how many the simulated
// channel lost.
func runLedger(seed int64, msg wire.Message, m metricSet) (exchanges, lost int64, err error) {
	fx, err := startServer()
	if err != nil {
		return 0, 0, err
	}
	exchanges, lost, err = physicsLedger(seed, fx, m)
	errs := []error{err,
		attackLedger(seed, m),
		servingLedger(fx, msg, m),
		handshakeLedger(seed, fx, m),
	}
	_, err = closeFixture(fx, nil)
	errs = append(errs, err, experimentLedger(seed, m))
	return exchanges, lost, errors.Join(errs...)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func nsToUS(ns float64) float64 { return ns / 1e3 }

// physicsLedger replays protected exchanges stage by stage, interleaved
// with the unwrapped testbed call on a twin world and the same exchange
// served over a UDP session, and requires all three to agree exactly.
func physicsLedger(seed int64, fx *fixture, m metricSet) (exchanges, lost int64, err error) {
	replay, ref := newWorld(seed), newWorld(seed)
	c, err := fx.dial(true, seed)
	if err != nil {
		return 0, 0, err
	}
	defer func() { err = errors.Join(err, fx.hangUp(c)) }()

	var tr *tracer
	var whole, served []float64
	for i := 0; i < ledgerWarm+exchangeRounds; i++ {
		if i == ledgerWarm {
			tr = newTracer()
		}
		// Alternate which of the two runs first, so neither gains from
		// caches the other warmed.
		var got exchangeRecord
		if i%2 == 0 {
			got = recordOutcome(replay.replayExchange(tr, replay.command(false)))
		}
		t0 := time.Now()
		out, refErr := ref.sc.RunProtectedExchange(ref.eaves, 0, ref.command(false))
		d := time.Since(t0)
		want := recordOutcome(out, refErr)
		if i%2 == 1 {
			got = recordOutcome(replay.replayExchange(tr, replay.command(false)))
		}
		t0 = time.Now()
		remote, remoteErr := recordWire(c.Go(&wire.ExchangeReq{Cmd: wire.CmdInterrogate}).Wait())
		dr := time.Since(t0)
		if classify(remoteErr) == opFailed {
			return exchanges, lost, remoteErr
		}
		if !got.equal(want) {
			return exchanges, lost, fmt.Errorf("stage replay %d drifted from RunProtectedExchange: %+v != %+v", i, got, want)
		}
		if !remote.equal(want) {
			return exchanges, lost, fmt.Errorf("served exchange %d drifted from RunProtectedExchange: %+v != %+v", i, remote, want)
		}
		exchanges += 3
		if refErr != nil {
			lost += 3
		}
		if tr != nil {
			whole = append(whole, us(d))
			served = append(served, us(dr))
		}
	}

	self := tr.selfTimes()
	for _, st := range exchangeStages {
		m.put(st+"_us", "us", median(self[st]))
	}
	var sums []float64
	for _, s := range tr.spans {
		if s.parent < 0 {
			sums = append(sums, us(s.end-s.start))
		}
	}
	for k, rootSelf := range self["testbed.exchange"] {
		sums[k] -= rootSelf
	}
	exchangeUS := median(whole)
	gap := 100 * (median(sums) - exchangeUS) / exchangeUS
	m.put("testbed.exchange_us", "us", exchangeUS)
	m.put("testbed.stage_sum_gap_pct", "%", gap)
	m.put("serving.overhead_us", "us", median(served)-exchangeUS)
	if math.Abs(gap) > stageGapTolerancePct {
		err = fmt.Errorf("stage self times sum to %.1f%% off testbed.exchange_us (tolerance %d%%)", gap, stageGapTolerancePct)
	}
	return exchanges, lost, err
}

// attackLedger replays shield-on attack trials stage by stage against the
// unwrapped RunAttackTrial on a twin world.
func attackLedger(seed int64, m metricSet) error {
	replay, ref := newWorld(seed), newWorld(seed)
	var tr *tracer
	for i := 0; i < ledgerWarm+attackRounds; i++ {
		if i == ledgerWarm {
			tr = newTracer()
		}
		setTherapy := i%2 == 1
		got := replay.replayAttack(tr, replay.command(setTherapy), true)
		want := ref.sc.RunAttackTrial(ref.adv, ref.command(setTherapy), true)
		if got != want {
			return fmt.Errorf("attack replay %d drifted from RunAttackTrial: %+v != %+v", i, got, want)
		}
	}
	self := tr.selfTimes()
	for _, st := range []string{"adversary.replay", "shieldcore.defend_window", "imd.process_window_attack"} {
		m.put(st+"_us", "us", median(self[st]))
	}
	return nil
}

// servingLedger times the per-message serving costs on msg as a session
// carries it: v3 envelope, securelink seal, datagram framing.
func servingLedger(fx *fixture, msg wire.Message, m metricSet) error {
	const batches, n = 7, 400
	env := wire.EncodeEnvelopeV3(9, 0, 8, msg)
	if _, _, _, _, err := wire.DecodeEnvelopeV3(env); err != nil {
		return err
	}
	m.put("wire.encode_envelope_ns", "ns", perOp(batches, n, func(i int) {
		sinkBytes = wire.EncodeEnvelopeV3(uint64(i), 0, uint64(i), msg)
	}))
	m.put("wire.decode_envelope_ns", "ns", perOp(batches, n, func(int) {
		_, _, _, sinkMsg, _ = wire.DecodeEnvelopeV3(env)
	}))

	shield, prog, err := securelink.Pair(secret)
	if err != nil {
		return err
	}
	sealed := make([][]byte, batches*n)
	m.put("securelink.seal_ns", "ns", perOp(batches, n, func(i int) { sealed[i] = prog.Seal(env) }))
	var openErr error
	m.put("securelink.open_ns", "ns", perOp(batches, n, func(i int) {
		if _, err := shield.Open(sealed[i]); err != nil && openErr == nil {
			openErr = err
		}
	}))
	if openErr != nil {
		return openErr
	}

	dg, err := dgram.Encode(dgram.KindSealed, sealed[0])
	if err != nil {
		return err
	}
	m.put("dgram.encode_ns", "ns", perOp(batches, n, func(int) {
		sinkBytes, _ = dgram.Encode(dgram.KindSealed, sealed[0])
	}))
	m.put("dgram.decode_ns", "ns", perOp(batches, n, func(int) {
		_, sinkBytes, _ = dgram.Decode(dg)
	}))
	m.put("metrics.snapshot_us", "us", nsToUS(perOp(batches, n, func(int) { sinkAny = fx.srv.Metrics() })))
	return nil
}

// handshakeLedger times the session set-up steps: the v4 AKE's pieces,
// the scenario pool's reset, and whole session opens on both transports.
func handshakeLedger(seed int64, fx *fixture, m metricSet) error {
	const batches = 7
	peer, err := securelink.NewEphemeral()
	if err != nil {
		return err
	}
	var hsErr error
	note := func(err error) {
		if err != nil && hsErr == nil {
			hsErr = err
		}
	}
	m.put("securelink.ephemeral_us", "us", nsToUS(perOp(batches, 16, func(int) {
		e, err := securelink.NewEphemeral()
		note(err)
		if err == nil {
			sinkBytes, err = e.Shared(peer.Public())
			note(err)
		}
	})))

	hello := (&wire.Hello{Version: wire.Version, Seed: seed, KeyShare: peer.Public()}).TranscriptBytes()
	challenge := (&wire.Challenge2{KeyShare: peer.Public()}).Encode()
	dh := make([]byte, 32)
	m.put("securelink.key_schedule_us", "us", nsToUS(perOp(batches, 64, func(int) {
		hs := securelink.NewHandshake(securelink.HandshakeLabelV4)
		hs.MixHash(hello)
		hs.MixHash(challenge)
		hs.MixKey(secret)
		hs.MixKey(dh)
		_, _, err := securelink.Pair(hs.SessionSecret())
		note(err)
		sinkBytes = hs.ResumptionSecret()
	})))

	cookies, err := securelink.NewCookieSource(0)
	if err != nil {
		return err
	}
	addr, nonce := "127.0.0.1:40000", make([]byte, 16)
	m.put("securelink.cookie_mint_us", "us", nsToUS(perOp(batches, 256, func(int) { sinkBytes = cookies.Mint(addr, nonce) })))
	cookie := cookies.Mint(addr, nonce)
	m.put("securelink.cookie_verify_us", "us", nsToUS(perOp(batches, 256, func(int) {
		if !cookies.Verify(addr, nonce, cookie) {
			note(errors.New("a fresh cookie did not verify"))
		}
	})))

	tickets, err := securelink.NewTicketSource(0, time.Minute)
	if err != nil {
		return err
	}
	rms, minted := make([]byte, 32), make([][]byte, batches*64)
	m.put("securelink.ticket_mint_us", "us", nsToUS(perOp(batches, 64, func(i int) {
		minted[i], err = tickets.Mint(rms, addr)
		note(err)
	})))
	m.put("securelink.ticket_redeem_us", "us", nsToUS(perOp(batches, 64, func(i int) {
		if _, ok := tickets.Redeem(minted[i]); !ok {
			note(errors.New("a fresh ticket did not redeem"))
		}
	})))

	sc := testbed.NewScenario(testbed.Options{Seed: seed})
	m.put("testbed.reset_us", "us", nsToUS(perOp(batches, 8, func(i int) { sc.Reset(stats.TrialSeed(seed, i)) })))
	m.put("testbed.new_scenario_ms", "ms", perOp(batches, 2, func(i int) {
		sinkAny = testbed.NewScenario(testbed.Options{Seed: stats.TrialSeed(seed, i)})
	})/1e6)

	for _, udp := range []bool{true, false} {
		var opens []float64
		for k := 0; k < openRounds; k++ {
			t0 := time.Now()
			c, err := fx.dial(udp, stats.TrialSeed(seed, k))
			if err != nil {
				return err
			}
			opens = append(opens, float64(time.Since(t0))/float64(time.Millisecond))
			note(fx.hangUp(c))
		}
		name := "client.open_tcp_p50_ms"
		if udp {
			name = "client.open_udp_p50_ms"
		}
		m.put(name, "ms", median(opens))
	}
	return hsErr
}

// experimentLedger times one sweep of every experiment at Workers=1 and
// one at Workers=nproc, and requires their renders to be identical.
func experimentLedger(seed int64, m metricSet) error {
	sweep := func(workers int) (map[string]string, map[string]float64, float64) {
		cfg := heartshield.ExperimentConfig{Seed: seed, Quick: true, Workers: workers}
		renders, ms := make(map[string]string), make(map[string]float64)
		var total float64
		for _, e := range heartshield.Experiments() {
			t0 := time.Now()
			renders[e.Name] = e.Run(cfg).Render()
			ms[e.Name] = float64(time.Since(t0)) / float64(time.Millisecond)
			total += ms[e.Name]
		}
		return renders, ms, total
	}
	serial, _, serialMS := sweep(1)
	par, ms, parMS := sweep(nproc)
	for name, want := range serial {
		if par[name] != want {
			return fmt.Errorf("%s renders differently at Workers=1 and Workers=%d", name, nproc)
		}
	}
	for _, name := range ledgerExperiments {
		m.put("experiments."+name+"_ms", "ms", ms[name])
	}
	m.put("experiments.speedup", "x", serialMS/parMS)
	return nil
}
