package fleet

import (
	"fmt"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	names := []string{"r1", "r2", "r3"}
	a := BuildRing(names)
	b := BuildRing([]string{"r3", "r1", "r2"}) // order must not matter
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("design-%d", i)
		ga, oka := a.Lookup(key, nil)
		gb, okb := b.Lookup(key, nil)
		if !oka || !okb || ga != gb {
			t.Fatalf("key %s: ring built from permuted members disagrees: %s vs %s", key, ga, gb)
		}
	}
}

func TestRingSpread(t *testing.T) {
	r := BuildRing([]string{"r1", "r2", "r3"})
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		name, ok := r.Lookup(fmt.Sprintf("design-%d", i), nil)
		if !ok {
			t.Fatal("lookup failed on non-empty ring")
		}
		counts[name]++
	}
	for name, n := range counts {
		if n < 500 || n > 1800 {
			t.Fatalf("member %s owns %d/3000 keys — spread is badly skewed: %v", name, n, counts)
		}
	}
}

// TestRingStability pins the consistency property the compile caches depend
// on: removing one member only remaps the keys that lived on it.
func TestRingStability(t *testing.T) {
	full := BuildRing([]string{"r1", "r2", "r3", "r4"})
	minus := BuildRing([]string{"r1", "r2", "r4"}) // r3 gone
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("design-%d", i)
		before, _ := full.Lookup(key, nil)
		after, _ := minus.Lookup(key, nil)
		if before == "r3" {
			if after == "r3" {
				t.Fatalf("key %s still maps to removed member", key)
			}
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %s moved from %s to %s though its home never left", key, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// TestRingExclusion: Lookup with an exclusion behaves like a ring without
// that member — the "ring minus the draining replica" rerouting rule.
func TestRingExclusion(t *testing.T) {
	full := BuildRing([]string{"r1", "r2", "r3"})
	minus := BuildRing([]string{"r1", "r3"})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("design-%d", i)
		got, ok := full.Lookup(key, func(n string) bool { return n == "r2" })
		want, _ := minus.Lookup(key, nil)
		if !ok || got != want {
			t.Fatalf("key %s: excluded lookup %s, ring-minus-member %s", key, got, want)
		}
	}
	if _, ok := full.Lookup("any", func(string) bool { return true }); ok {
		t.Fatal("lookup succeeded with every member excluded")
	}
	if _, ok := BuildRing(nil).Lookup("any", nil); ok {
		t.Fatal("lookup succeeded on empty ring")
	}
}
