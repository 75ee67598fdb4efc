//go:build race

package service

// raceEnabled reports whether the race detector is active; sync.Pool
// deliberately drops items under -race, so allocation pins are skipped.
const raceEnabled = true
