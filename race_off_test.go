//go:build !race

package topoctl

// raceEnabled reports whether the race detector is active; sync.Pool
// deliberately drops items under -race, so work budgets are skipped.
const raceEnabled = false
