package main

import (
	"fmt"
	"math/rand"

	"gsim/internal/bitvec"
	"gsim/internal/gen"
)

// The synthetic profiles take one 128-bit "stim" input: two cluster
// selectors in the low bits, payload above. Which clusters the selectors
// enable decides the activity factor, so the two stimuli below are the
// paper's two workload characters (§IV): a hot loop and a boot. They are
// modelled on harness.stimulus but every random choice comes from -seed.

type stimKind int

const (
	stimHot  stimKind = iota // CoreMark-like: both selectors dwell on one cluster, hop every 256 cycles
	stimBoot                 // Linux-boot-like: one selector sweeps every cluster each 16 cycles, the other is random
)

type stimulus struct {
	kind     stimKind
	clusters uint64
	selW     uint
	rng      *rand.Rand
	table    [8]uint64 // the hot loop's short repeating payload
	cycle    int
}

func newStimulus(kind stimKind, p gen.Profile, seed int64) *stimulus {
	s := &stimulus{kind: kind, clusters: uint64(p.Clusters), selW: 1, rng: rand.New(rand.NewSource(seed))}
	for 1<<s.selW < p.Clusters {
		s.selW++
	}
	for i := range s.table {
		s.table[i] = s.rng.Uint64()
	}
	return s
}

// next returns the stim words for the next cycle.
func (s *stimulus) next() (lo, hi uint64) {
	c := s.cycle
	s.cycle++
	var sel, sel2, payload, top uint64
	switch s.kind {
	case stimHot:
		sel = uint64(c/256) & 1
		sel2 = sel
		payload = s.table[c%len(s.table)]
	case stimBoot:
		sel = uint64(c/16) % s.clusters
		sel2 = uint64(s.rng.Intn(int(s.clusters)))
		payload, top = s.rng.Uint64(), s.rng.Uint64()
	}
	mask := uint64(1)<<s.selW - 1
	lo = sel&mask | (sel2&mask)<<s.selW | payload<<(2*s.selW)
	hi = top<<(2*s.selW) | payload>>(64-2*s.selW)
	return lo, hi
}

// stimBuffer holds one segment's worth of pre-generated stim values, so the
// generator's own cost (RNG, allocation) stays outside every timed region.
type stimBuffer struct {
	words []uint64
	vals  []bitvec.BV
}

func newStimBuffer(cycles int) *stimBuffer {
	b := &stimBuffer{words: make([]uint64, 2*cycles), vals: make([]bitvec.BV, cycles)}
	for i := range b.vals {
		b.vals[i] = bitvec.BV{Width: 128, W: b.words[2*i : 2*i+2 : 2*i+2]}
	}
	return b
}

func (b *stimBuffer) fill(s *stimulus, cycles int) []bitvec.BV {
	for i := 0; i < cycles; i++ {
		b.words[2*i], b.words[2*i+1] = s.next()
	}
	return b.vals[:cycles]
}

// literal renders stim words as the FIRRTL-style literal the ops API takes.
func stimLiteral(lo, hi uint64) string { return fmt.Sprintf("h%x%016x", hi, lo) }
