package main

import (
	"heartshield/internal/adversary"
	"heartshield/internal/imd"
	"heartshield/internal/phy"
	"heartshield/internal/shieldcore"
	"heartshield/internal/testbed"
)

// world is one simulated testbed wired exactly as heartshield.NewSimulation
// wires it, so a world at seed s produces the same exchange stream as a
// Simulation or a shieldd session at seed s.
type world struct {
	sc    *testbed.Scenario
	eaves *adversary.Eavesdropper
	adv   *adversary.Active
}

func newWorld(seed int64) *world {
	sc := testbed.NewScenario(testbed.Options{Seed: seed})
	sc.CalibrateShieldRSSI()
	cfo := testbed.IMDCFOHz
	return &world{
		sc: sc,
		eaves: &adversary.Eavesdropper{
			Antenna: testbed.AntEavesdropper,
			Medium:  sc.Medium,
			RX:      sc.EavesRX,
			Modem:   sc.FSK,
			CFOHint: &cfo,
		},
		adv: &adversary.Active{
			Antenna: testbed.AntAdversary,
			Medium:  sc.Medium,
			TX:      sc.AdvTX,
			RX:      sc.AdvRX,
			Modem:   sc.FSK,
		},
	}
}

// command builds the world's interrogate or therapy-change frame.
func (w *world) command(setTherapy bool) *phy.Frame {
	if setTherapy {
		return w.sc.SetTherapyFrame(200)
	}
	return w.sc.InterrogateFrame()
}

// replayExchange makes, in order, the public calls
// testbed.Scenario.RunProtectedExchange makes, each inside its own span
// under a "testbed.exchange" root. It must return exactly what
// RunProtectedExchange returns on an identical world; the fidelity test
// holds it to that.
func (w *world) replayExchange(tr *tracer, cmd *phy.Frame) (testbed.ExchangeOutcome, error) {
	var out testbed.ExchangeOutcome
	sc := w.sc
	root := tr.begin("testbed.exchange", -1)
	defer tr.end(root)

	tr.stage("testbed.new_trial", root, sc.NewTrial)
	tr.stage("shieldcore.estimate_channels", root, func() { sc.Shield.EstimateChannels() })
	tr.stage("channel.perturb", root, sc.Medium.Perturb)
	tr.stage("shieldcore.cancellation_db", root, func() { out.CancellationDB = sc.Shield.CancellationDB(4096) })

	var (
		pending *shieldcore.PendingRelay
		err     error
	)
	tr.stage("shieldcore.place_command", root, func() { pending, err = sc.Shield.PlaceCommand(cmd, 0) })
	if err != nil {
		return out, err
	}
	var re imd.Reaction
	tr.stage("imd.process_window", root, func() { re = sc.IMDs[0].ProcessWindow(0, 12000) })
	if !re.Responded {
		return out, testbed.ErrNoResponse
	}
	var res shieldcore.RelayResult
	tr.stage("shieldcore.collect", root, func() { res = pending.Collect() })
	if res.Response == nil {
		return out, testbed.ErrDecodeFailed
	}
	out.Response = res.Response
	tr.stage("adversary.intercept_ber", root, func() {
		out.EavesdropperBER = w.eaves.InterceptBER(sc.Channel(), re.ResponseBurst.Start, re.Response.MarshalBits())
	})
	return out, nil
}

// replayAttack makes, in order, the public calls
// testbed.Scenario.RunAttackTrial makes, each inside its own span under a
// "testbed.attack" root, and must return exactly what RunAttackTrial
// returns on an identical world.
func (w *world) replayAttack(tr *tracer, cmd *phy.Frame, shieldOn bool) testbed.AttackOutcome {
	var out testbed.AttackOutcome
	sc := w.sc
	root := tr.begin("testbed.attack", -1)
	defer tr.end(root)

	tr.stage("testbed.attack_new_trial", root, sc.NewTrial)
	alarmsBefore := len(sc.Shield.Alarms())
	if shieldOn {
		tr.stage("testbed.attack_prepare_shield", root, sc.PrepareShield)
	}
	var end int64
	tr.stage("adversary.replay", root, func() { end = w.adv.Replay(sc.Channel(), 1000, cmd).End() })
	window := int(end) + 2500
	if shieldOn {
		tr.stage("shieldcore.defend_window", root, func() {
			dr := sc.Shield.DefendWindow(0, window)
			out.Jammed = dr.Jammed
			out.RSSIAtShieldDBm = dr.RSSIDBm
		})
		out.Alarmed = len(sc.Shield.Alarms()) > alarmsBefore
	}
	tr.stage("imd.process_window_attack", root, func() {
		re := sc.IMD.ProcessWindow(0, window)
		out.Responded = re.Responded
		out.TherapyChanged = re.TherapyChanged
	})
	return out
}
