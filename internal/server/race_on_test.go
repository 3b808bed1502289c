//go:build race

package server

// raceEnabled skips allocation counts: under the race detector sync.Pool
// drops items at random, so the counts measure the detector.
const raceEnabled = true
