//go:build race

package leakcheck

// RaceEnabled reports whether the binary was built with the race detector.
// Allocation-count tests skip under it: sync.Pool drops a share of its
// entries at random there, so pooled paths allocate more, and differently
// from run to run.
const RaceEnabled = true
