package engine

import (
	"fmt"
	"math/bits"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/ir"
)

// Gang steps K independent stimulus lanes through one compiled design in
// lockstep — full-cycle semantics per lane, amortizing instruction dispatch
// across lanes (see emit.GangMachine for the struct-of-arrays layout). Each
// lane is observationally identical to a scalar FullCycle engine fed the same
// stimulus: state trajectory, stat counters, waveform, and snapshot bytes all
// match bit for bit (the lockstep suites pin this).
//
// Lanes diverge by parking: SetLive masks a lane out of Step, freezing its
// state, counters, and waveform mid-run; waking it resumes exactly where it
// stopped. Masked execution routes through the per-lane fallback only for the
// cycles where lanes actually diverge — a full gang runs the dense kernels.
//
// A Gang is not an engine.Sim (its accessors take a lane index; OneLane
// addresses a scalar engine the same way), but it follows the same
// lifecycle: construct, Poke/Step/Peek, Reset, Close.
// Like every engine, it is single-goroutine: no method may race another.
type Gang struct {
	g       *ir.Graph
	p       *emit.Program
	gm      *emit.GangMachine
	kernels []emit.GangFn

	k    int
	full uint64 // all-lanes mask for k
	live uint64 // lanes advanced by Step

	regs   []int32 // register node IDs
	writes []int32 // memory write-port node IDs
	nCoded int     // nodes with evaluation work (EvaluableNodes per lane)
	resets []resetGroup

	steps     uint64  // Step calls issued (gang cycles, lane-independent)
	laneStats []Stats // per-lane counters, mirroring a scalar FullCycle's
	laneExec  []uint64
	tracers   []Tracer
	view      []uint64 // scalar-image scratch for tracers and captures

	obs        *Metrics // attached process-wide bundle (see obs.go)
	obsFlushed Stats    // aggregate stats image as of the last flush
}

// NewGang builds a k-lane gang over a compiled program (1 <= k <=
// emit.MaxGangLanes). All lanes start live at the initial image.
func NewGang(p *emit.Program, k int) *Gang {
	g := &Gang{
		g:         p.Graph,
		p:         p,
		gm:        emit.NewGangMachine(p, k),
		kernels:   p.GangKernels(k),
		k:         k,
		full:      emit.GangFullMask(k),
		laneStats: make([]Stats, k),
		laneExec:  make([]uint64, k),
		tracers:   make([]Tracer, k),
		view:      make([]uint64, p.NumWords),
	}
	g.live = g.full
	bySig := map[int32]int{}
	for _, n := range p.Graph.Nodes {
		if n.HasCode() {
			g.nCoded++
		}
		switch n.Kind {
		case ir.KindReg:
			g.regs = append(g.regs, int32(n.ID))
			if n.ResetSig != nil {
				sig := int32(n.ResetSig.ID)
				gi, ok := bySig[sig]
				if !ok {
					gi = len(g.resets)
					bySig[sig] = gi
					g.resets = append(g.resets, resetGroup{sig: sig})
				}
				g.resets[gi].regs = append(g.resets[gi].regs, int32(n.ID))
			}
		case ir.KindMemWrite:
			g.writes = append(g.writes, int32(n.ID))
		}
	}
	for l := range g.laneStats {
		g.laneStats[l].EvaluableNodes = uint64(g.nCoded)
	}
	return g
}

// Lanes returns the gang's lane count.
func (g *Gang) Lanes() int { return g.k }

// Program exposes the shared compiled program (snapshot encoding needs it).
func (g *Gang) Program() *emit.Program { return g.p }

// LiveMask returns the current liveness mask (bit l = lane l advances).
func (g *Gang) LiveMask() uint64 { return g.live }

// SetLive parks (false) or wakes (true) one lane. A parked lane freezes
// completely — state, counters, waveform — and resumes exactly on wake.
func (g *Gang) SetLive(lane int, live bool) {
	g.checkLane(lane)
	if live {
		g.live |= uint64(1) << uint(lane)
	} else {
		g.live &^= uint64(1) << uint(lane)
	}
}

// Live reports whether a lane advances on Step.
func (g *Gang) Live(lane int) bool {
	g.checkLane(lane)
	return g.live&(uint64(1)<<uint(lane)) != 0
}

func (g *Gang) checkLane(lane int) {
	if lane < 0 || lane >= g.k {
		panic(fmt.Sprintf("engine: gang lane %d outside [0,%d)", lane, g.k))
	}
}

// Cycles returns the number of Step calls issued — the gang's wall-clock
// cycle count. Per-lane simulated cycles live in LaneStats (a lane parked
// for part of the run has fewer).
func (g *Gang) Cycles() uint64 { return g.steps }

// Step simulates one clock cycle on every live lane.
func (g *Gang) Step() { g.StepLanes(g.live) }

// StepLanes simulates one clock cycle on the lanes selected by mask
// (intersected with the live set). Lanes outside the mask are untouched.
func (g *Gang) StepLanes(mask uint64) {
	g.steps++
	mask &= g.live & g.full
	if mask == 0 {
		return
	}
	for _, fn := range g.kernels {
		fn(g.gm, mask)
	}
	g.commitRegs(mask)
	g.commitWrites(mask)
	g.applyResets(mask)
	nInstrs := uint64(len(g.p.Instrs))
	for mm := mask; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		ls := &g.laneStats[l]
		ls.Cycles++
		ls.NodeEvals += uint64(g.nCoded)
		ls.InstrsExecuted += nInstrs
		g.laneExec[l] += nInstrs
		g.gm.Executed += nInstrs
		if t := g.tracers[l]; t != nil {
			g.gm.ExtractLane(l, g.view)
			t.Snapshot(g.view)
		}
	}
	g.maybeFlushObs()
}

// commitRegs copies next values over current values on the stepped lanes.
// With all lanes stepped, a register's words are one contiguous strided run,
// so the commit is a single copy per register.
func (g *Gang) commitRegs(mask uint64) {
	p, st, k := g.p, g.gm.State, g.k
	if mask == g.full {
		for _, id := range g.regs {
			cur := int(p.Off[id]) * k
			next := int(p.NextOff[id]) * k
			n := int(p.WordsOf[id]) * k
			copy(st[cur:cur+n], st[next:next+n])
		}
		return
	}
	for _, id := range g.regs {
		cur, next, w := int(p.Off[id]), int(p.NextOff[id]), int(p.WordsOf[id])
		for i := 0; i < w; i++ {
			cb, nb := (cur+i)*k, (next+i)*k
			for mm := mask; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				st[cb+l] = st[nb+l]
			}
		}
	}
}

// commitWrites applies enabled memory write ports on the stepped lanes. The
// 1-bit enables pack bit-parallel across lanes (PackBits), so lanes that
// wrote nothing cost one mask AND, not a branch per lane.
func (g *Gang) commitWrites(mask uint64) {
	p, st, k := g.p, g.gm.State, g.k
	for _, id := range g.writes {
		en := g.gm.PackBits(p.WEnOff[id]) & mask
		if en == 0 {
			continue
		}
		n := g.g.Nodes[id]
		memID := n.Mem.ID
		spec := &p.Mems[memID]
		addrOff := int(p.WAddrOff[id]) * k
		dataOff := int(p.WDataOff[id])
		mem := g.gm.Mems[memID]
		for mm := en; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			addr := st[addrOff+l]
			if addr >= uint64(spec.Depth) {
				continue
			}
			base := int(addr) * int(spec.WordsPer)
			for i := 0; i < int(spec.WordsPer); i++ {
				mem[(base+i)*k+l] = st[(dataOff+i)*k+l]
			}
		}
	}
}

// applyResets runs the reset slow path per stepped lane, with the 1-bit reset
// signals read bit-parallel across lanes. Stat accounting mirrors the scalar
// base.applyResets exactly: lanes with the signal low count the skipped
// checks, lanes with it high force inits and count changed registers.
func (g *Gang) applyResets(mask uint64) {
	p, st, k := g.p, g.gm.State, g.k
	for i := range g.resets {
		rg := &g.resets[i]
		sigs := g.gm.PackBits(p.Off[rg.sig]) & mask
		for mm := mask &^ sigs; mm != 0; mm &= mm - 1 {
			g.laneStats[bits.TrailingZeros64(mm)].ResetFastSkips += uint64(len(rg.regs))
		}
		for mm := sigs; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			for _, id := range rg.regs {
				cur, next, w := int(p.Off[id]), int(p.NextOff[id]), int(p.WordsOf[id])
				var diff uint64
				for j := 0; j < w; j++ {
					iv := p.Init[cur+j]
					diff |= st[(cur+j)*k+l] ^ iv
					st[(cur+j)*k+l] = iv
					st[(next+j)*k+l] = iv
				}
				if diff != 0 {
					g.laneStats[l].RegCommits++
				}
			}
		}
	}
}

// Poke sets an input node's value in one lane, taking effect on its next
// stepped cycle. Parked lanes accept pokes (they apply when the lane wakes).
func (g *Gang) Poke(lane, nodeID int, v bitvec.BV) {
	g.checkLane(lane)
	g.gm.LanePoke(lane, nodeID, v)
}

// Peek returns a node's current value in one lane.
func (g *Gang) Peek(lane, nodeID int) bitvec.BV {
	g.checkLane(lane)
	return g.gm.LanePeek(lane, nodeID)
}

// PeekMem returns one memory element in one lane.
func (g *Gang) PeekMem(lane, memID, addr int) bitvec.BV {
	g.checkLane(lane)
	return g.gm.LanePeekMem(lane, memID, addr)
}

// PokeMem overwrites one memory element in one lane (loader use).
func (g *Gang) PokeMem(lane, memID, addr int, v bitvec.BV) {
	g.checkLane(lane)
	g.gm.LanePokeMem(lane, memID, addr, v)
}

// LaneStats returns a copy of one lane's counters — the same values a scalar
// FullCycle fed the same stimulus would report.
func (g *Gang) LaneStats(lane int) Stats {
	g.checkLane(lane)
	return g.laneStats[lane]
}

// AggregateStats sums the per-lane counters (EvaluableNodes included, so the
// aggregate activity factor still normalizes correctly).
func (g *Gang) AggregateStats() Stats {
	var agg Stats
	for l := range g.laneStats {
		s := &g.laneStats[l]
		agg.Cycles += s.Cycles
		agg.NodeEvals += s.NodeEvals
		agg.Activations += s.Activations
		agg.Examinations += s.Examinations
		agg.InstrsExecuted += s.InstrsExecuted
		agg.RegCommits += s.RegCommits
		agg.EvaluableNodes += s.EvaluableNodes
		agg.ResetFastSkips += s.ResetFastSkips
	}
	return agg
}

// AttachLaneTracer routes one lane's waveform through t: every cycle the lane
// steps ends with one t.Snapshot over the lane's scalar-layout state image —
// the same bytes a scalar engine's tracer sees. Attach nil to detach.
func (g *Gang) AttachLaneTracer(lane int, t Tracer) {
	g.checkLane(lane)
	g.tracers[lane] = t
}

// ResetLane restores one lane to power-on state (image, memories, counters)
// without touching the others or the gang's liveness mask.
func (g *Gang) ResetLane(lane int) {
	g.checkLane(lane)
	g.FlushObs() // bank earned progress before the aggregate moves backward
	g.gm.ResetLane(lane)
	g.laneStats[lane] = Stats{EvaluableNodes: uint64(g.nCoded)}
	g.laneExec[lane] = 0
	g.recountExecuted()
	if g.obs != nil {
		g.obsFlushed = g.AggregateStats()
	}
}

// Reset restores every lane to power-on state and re-arms all lanes live —
// indistinguishable from a fresh NewGang of the same shape.
func (g *Gang) Reset() {
	g.FlushObs()
	g.gm.Reset()
	for l := range g.laneStats {
		g.laneStats[l] = Stats{EvaluableNodes: uint64(g.nCoded)}
		g.laneExec[l] = 0
	}
	g.live = g.full
	g.steps = 0
	if g.obs != nil {
		g.obsFlushed = g.AggregateStats()
	}
}

// Close releases engine resources — a no-op for the serial gang, present for
// lifecycle symmetry with engine.Sim.
func (g *Gang) Close() {}

// CaptureLane enumerates one lane's complete state as a scalar-layout
// SimState — byte-compatible (through snapshot.Encode) with a capture from a
// scalar FullCycle twin of the lane. The returned state owns fresh slices.
func (g *Gang) CaptureLane(lane int) (*SimState, error) {
	if lane < 0 || lane >= g.k {
		return nil, fmt.Errorf("engine: gang lane %d outside [0,%d)", lane, g.k)
	}
	st := &SimState{
		State:    make([]uint64, g.p.NumWords),
		Mems:     make([][]uint64, len(g.p.Mems)),
		Executed: g.laneExec[lane],
		Stats:    g.laneStats[lane],
	}
	g.gm.ExtractLane(lane, st.State)
	for i := range g.p.Mems {
		st.Mems[i] = make([]uint64, len(g.p.Mems[i].Init))
		g.gm.ExtractLaneMem(i, lane, st.Mems[i])
	}
	return st, nil
}

// RestoreLane overwrites one lane's state from a scalar-layout capture — the
// inverse of CaptureLane, and the cross-shape bridge: a scalar FullCycle
// snapshot restores into a gang lane and vice versa (same design hash). A
// capture that fails validation leaves the lane untouched. A capture from
// further along than the lockstep counter moves the counter up to it: a gang
// rebuilt on a new process and refilled lane by lane from a migrated run
// continues that run's cycle count instead of restarting from zero.
func (g *Gang) RestoreLane(lane int, s *SimState) error {
	if lane < 0 || lane >= g.k {
		return fmt.Errorf("engine: gang lane %d outside [0,%d)", lane, g.k)
	}
	if len(s.State) != g.p.NumWords {
		return fmt.Errorf("engine: state image is %d words, gang lane has %d", len(s.State), g.p.NumWords)
	}
	if len(s.Mems) != len(g.p.Mems) {
		return fmt.Errorf("engine: snapshot has %d memories, gang has %d", len(s.Mems), len(g.p.Mems))
	}
	for i := range s.Mems {
		if len(s.Mems[i]) != len(g.p.Mems[i].Init) {
			return fmt.Errorf("engine: memory %d is %d words, gang has %d", i, len(s.Mems[i]), len(g.p.Mems[i].Init))
		}
	}
	g.gm.InjectLane(lane, s.State)
	for i := range s.Mems {
		g.gm.InjectLaneMem(i, lane, s.Mems[i])
	}
	g.laneExec[lane] = s.Executed
	g.laneStats[lane] = s.Stats
	g.laneStats[lane].EvaluableNodes = uint64(g.nCoded) // engine-derived, same design => same value
	g.recountExecuted()
	g.steps = max(g.steps, s.Stats.Cycles)
	if g.obs != nil {
		// Restored history is not newly simulated work: re-baseline so the
		// jump (forward or backward) never reaches the process counters.
		g.obsFlushed = g.AggregateStats()
	}
	return nil
}

// recountExecuted rebuilds the aggregate retired-instruction counter after a
// per-lane restore or reset rewrote one lane's history.
func (g *Gang) recountExecuted() {
	var total uint64
	for _, e := range g.laneExec {
		total += e
	}
	g.gm.Executed = total
}
