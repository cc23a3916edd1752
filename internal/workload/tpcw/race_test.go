//go:build race

package tpcw

// raceEnabled says the race detector is on: it allocates on its own
// account, so allocation counts mean nothing under it.
const raceEnabled = true
