//go:build !race

package leakcheck

// RaceEnabled: see race.go.
const RaceEnabled = false
