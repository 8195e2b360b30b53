//go:build !linux

package main

// pinThread and confineProcess are no-ops where the benchmark has no way to
// set CPU affinity.
func pinThread() (unpin func()) { return func() {} }

func confineProcess() (release func()) { return func() {} }
