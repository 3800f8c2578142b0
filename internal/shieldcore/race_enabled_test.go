//go:build race

package shieldcore

// raceEnabled reports that this binary was built with -race, under which
// the FFT plans' sync.Pool drops items at random, so testing.AllocsPerRun
// cannot hold Generate to zero.
const raceEnabled = true
