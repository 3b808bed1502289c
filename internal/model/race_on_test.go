//go:build race

package model

// raceEnabled trims the d = 128 sweeps, which the race detector slows
// tenfold without adding concurrency to them.
const raceEnabled = true
