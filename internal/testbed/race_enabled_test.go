//go:build race

package testbed

// raceEnabled reports that this binary was built with -race, whose
// instrumentation allocates on its own (sync.Pool drops items at
// random), so allocation budgets cannot be held under it.
const raceEnabled = true
