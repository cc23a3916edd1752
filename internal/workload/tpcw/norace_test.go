//go:build !race

package tpcw

const raceEnabled = false
