package main

import (
	"bytes"
	"testing"
)

// TestStageReplayFidelity holds the traced stage replays to the code they
// decompose: at several seeds, a replayed exchange must give the same
// response, cancellation and eavesdropper BER as
// testbed.Scenario.RunProtectedExchange on an identical world, and a
// replayed attack the same flags as RunAttackTrial. A change to
// internal/testbed that the replay does not follow fails here.
func TestStageReplayFidelity(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42, 1234} {
		replay, ref := newWorld(seed), newWorld(seed)
		tr := newTracer()
		for i := 0; i < 6; i++ {
			setTherapy := i%3 == 2
			got, gotErr := replay.replayExchange(tr, replay.command(setTherapy))
			want, wantErr := ref.sc.RunProtectedExchange(ref.eaves, 0, ref.command(setTherapy))
			if gotErr != wantErr {
				t.Fatalf("seed %d exchange %d: replay error %v, RunProtectedExchange error %v", seed, i, gotErr, wantErr)
			}
			if got.CancellationDB != want.CancellationDB || got.EavesdropperBER != want.EavesdropperBER {
				t.Fatalf("seed %d exchange %d: replay (%v dB, BER %v) != RunProtectedExchange (%v dB, BER %v)",
					seed, i, got.CancellationDB, got.EavesdropperBER, want.CancellationDB, want.EavesdropperBER)
			}
			if (got.Response == nil) != (want.Response == nil) ||
				got.Response != nil && (got.Response.Command != want.Response.Command || !bytes.Equal(got.Response.Payload, want.Response.Payload)) {
				t.Fatalf("seed %d exchange %d: replay response %+v != %+v", seed, i, got.Response, want.Response)
			}
		}
		for i := 0; i < 6; i++ {
			shieldOn := i%2 == 0
			setTherapy := i%4 < 2
			got := replay.replayAttack(tr, replay.command(setTherapy), shieldOn)
			want := ref.sc.RunAttackTrial(ref.adv, ref.command(setTherapy), shieldOn)
			if got != want {
				t.Fatalf("seed %d attack %d (shield on %v): replay %+v != RunAttackTrial %+v", seed, i, shieldOn, got, want)
			}
		}
		if len(tr.spans) == 0 {
			t.Fatal("replay recorded no spans")
		}
	}
}
