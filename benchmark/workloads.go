package main

import (
	"bytes"
	"fmt"

	"gsim/internal/core"
	"gsim/internal/firrtl"
	"gsim/internal/gen"
)

const (
	// opCycles is the size of one client-visible op everywhere: a server
	// request steps 16 cycles, and the engine workloads time the same 16.
	opCycles = 16
	// peekEvery is the digest's sampling period on the engine workloads.
	peekEvery = 1024
	// baseSeconds is the -seconds value the full scale's segment sizes were
	// computed for, from rates measured on the 2-core reference box
	// (rocket-like: 23 / 8.0 / 1.43 kHz hot / boot / full-cycle): a segment
	// is ~0.18 s of work, or 32 ops where 0.18 s would hold fewer.
	baseSeconds = 8
)

// scale fixes how much work a run does. Work is a count, never a duration:
// the same scale and seed execute the same cycles and requests on every
// commit, so counts and digests repeat exactly and run length does not
// depend on what is being measured.
type scale struct {
	engineDesign, serviceDesign gen.Profile

	rounds int // cold set-ups per run; everything below repeats per round

	hot, boot, full load // cycles per segment: rocket-hot, rocket-boot, rocket-fullcycle
	serve, fleet    load // requests per client per segment: serve-sessions, fleet-routed

	twinCycles int // lockstep check against the interpreter twin

	layerReps  int // traced run: repetitions of each compile layer
	layerSegs  int // traced run: segments per engine/ledger measurement
	layerIters int // traced run: repetitions of each small one-shot
	ledgerReqs int // traced run: requests per ledger segment
}

// load is one workload's measured work per round: segs segments of size
// cycles or requests each (S = rounds x segs segments per run).
type load struct{ size, segs int }

// warm is the discarded warm-up that closes every set-up: an eighth of a
// round's measured work, enough to fault in the state image and settle the
// heap.
func (l load) warm(multiple int) int {
	return max(l.size*l.segs/8/multiple*multiple, multiple)
}

func fullScale(seconds int) scale {
	// Segment sizes scale with -seconds. Cycle counts stay whole ops; request
	// counts stay multiples of 10 so exactly one request in ten is peek-only.
	seg := func(base, multiple int) int {
		n := base * seconds / baseSeconds / multiple * multiple
		if n < 8*multiple {
			n = 8 * multiple
		}
		return n
	}
	return scale{
		engineDesign: gen.RocketLike(), serviceDesign: gen.StuCoreLike(),
		rounds: 5,
		hot:    load{seg(4096, opCycles), 8}, boot: load{seg(1408, opCycles), 8}, full: load{seg(512, opCycles), 4},
		serve: load{seg(1500, 10), 8}, fleet: load{seg(750, 10), 8},
		twinCycles: 512,
		layerReps:  2, layerSegs: 3, layerIters: 21, ledgerReqs: seg(2000, 10),
	}
}

// tinyScale is the self-test's scale: the small profile everywhere and a
// handful of ops, so all five workloads run in a few seconds.
func tinyScale() scale {
	return scale{
		engineDesign: gen.StuCoreLike(), serviceDesign: gen.StuCoreLike(),
		rounds: 2,
		hot:    load{256, 2}, boot: load{256, 2}, full: load{128, 2},
		serve: load{20, 2}, fleet: load{20, 2},
		twinCycles: 64,
		layerReps:  1, layerSegs: 2, layerIters: 3, ledgerReqs: 20,
	}
}

type workload struct {
	name, why string

	// Engine workloads: the configuration under test and its stimulus.
	// Service workloads leave cfg nil and go through HTTP.
	cfg    func() core.Config
	stim   stimKind
	routed bool

	load func(scale) load
}

var workloads = []workload{
	{name: "rocket-hot", cfg: core.GSIM, stim: stimHot, load: func(s scale) load { return s.hot },
		why: "activity engine on a hot loop (~6% of nodes active): per-cycle bookkeeping, not evaluation, dominates"},
	{name: "rocket-boot", cfg: core.GSIM, stim: stimBoot, load: func(s scale) load { return s.boot },
		why: "same compiled design on a boot-like moving working set (~15% active): evaluation dominates"},
	{name: "rocket-fullcycle", cfg: core.Verilator, stim: stimBoot, load: func(s scale) load { return s.full },
		why: "full-cycle engine, every node every cycle: bypasses partition and activity logic, pure kernel throughput"},
	{name: "serve-sessions", load: func(s scale) load { return s.serve },
		why: "2 clients over HTTP on a small design: JSON, session lock and op loop dominate, engine does little"},
	{name: "fleet-routed", routed: true, load: func(s scale) load { return s.fleet },
		why: "same traffic through the router to 2 replicas, then a live migration: only the router hop differs"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// designText elaborates a profile and renders it as FIRRTL: the form in
// which every workload hands the design to the program under test.
func designText(p gen.Profile) (string, error) {
	var buf bytes.Buffer
	if err := firrtl.Write(&buf, gen.BuildProfile(p)); err != nil {
		return "", fmt.Errorf("write %s as firrtl: %w", p.Name, err)
	}
	return buf.String(), nil
}

// Port names of the synthetic profiles after the FIRRTL round trip.
const (
	stimPort = "stim"
	outPort  = "checksum_out"
)
