package engine

import "fmt"

// CheckShadows asserts the shadow-compare invariant the flat supernode plan
// rests on: between Steps every tracked slot's shadow equals its state word.
func (a *Activity) CheckShadows() error {
	st, pl := a.m.State, a.plan
	for i := range pl.track {
		if t := &pl.track[i]; a.prev[i] != st[t.off] {
			return fmt.Errorf("track slot %d (state word %d): shadow %#x, state %#x", i, t.off, a.prev[i], st[t.off])
		}
	}
	for i := range pl.wide {
		t := &pl.wide[i]
		for k := int32(0); k < t.w; k++ {
			if a.wprev[t.prev+k] != st[t.off+k] {
				return fmt.Errorf("wide slot %d word %d (state word %d): shadow %#x, state %#x",
					i, k, t.off+k, a.wprev[t.prev+k], st[t.off+k])
			}
		}
	}
	return nil
}

// TrackedSlots reports how many change-tracked slots the plan holds, so a
// test can tell a vacuous shadow check from a real one.
func (a *Activity) TrackedSlots() int { return len(a.plan.track) + len(a.plan.wide) }
