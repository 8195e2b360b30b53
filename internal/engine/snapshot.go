package engine

import "fmt"

// SimState is the complete mutable state of a Sim between Steps — everything
// a checkpoint must carry for a resumed run to be bit-identical (state image,
// waveform, and stat counters) to an uninterrupted one. It lives next to
// Tracer as the second engine-introspection surface: Tracer streams state out
// per cycle, Snapshotter moves it in and out at rest.
//
// The first four fields are engine-independent (they mirror emit.Machine plus
// the Stats block every engine keeps). The activity fields carry the
// essential-signal engine's arming state in partition space — supernode
// indices, not active-word layouts — so a capture at one worker count
// restores at any other: each engine re-derives its own word layout from the
// supernode set.
type SimState struct {
	State    []uint64   // the machine's persistent words (Program.StateWords); temporaries are scratch
	Mems     [][]uint64 // memory arrays, per MemSpec
	Executed uint64     // Machine.Executed
	Stats    Stats

	// SupCount is the supernode count of the capturing engine's partition; 0
	// when the engine tracks no activity (FullCycle). PartPrint is that
	// partition's membership fingerprint (partition.Result.Fingerprint), 0
	// with SupCount. Restoring an activity engine validates both against its
	// own partition: the design hash does not cover the partition, and
	// supernode indices mean nothing under another one.
	SupCount  int
	PartPrint uint64
	// ActiveSups lists the armed supernodes, ascending. Meaningful only when
	// SupCount > 0; restoring from a SupCount == 0 capture conservatively
	// re-arms everything (a full evaluation is always semantically safe).
	ActiveSups []int32
	// PendingRegs lists registers with an uncommitted next value. Engines
	// drain pending registers inside Step, so captures taken between Steps —
	// the only supported capture point — normally carry none; the field
	// exists so a restore fully determines the engine's commit bookkeeping.
	PendingRegs []int32
}

// Snapshotter is implemented by every engine: CaptureState enumerates the
// complete mutable state, RestoreState overwrites it. Both must be called
// between Steps (never concurrently with one). The returned SimState aliases
// live engine storage — serialize or copy it before stepping again.
// RestoreState copies out of the argument into the engine's existing buffers
// (the plan's stream addresses the machine's state image unchecked, on the
// shape it was bound with, so the image is overwritten in place, never
// reallocated) and fully re-derives the
// engine's private bookkeeping, so restoring into a used engine is exactly a
// restore into a fresh one.
type Snapshotter interface {
	CaptureState() *SimState
	RestoreState(*SimState) error
}

// captureBase fills the engine-independent fields. The state is the
// persistent prefix of the image: the temporary regions hold nothing a
// Step reads before writing it.
func (b *base) captureBase() *SimState {
	return &SimState{
		State:    b.m.State[:b.p.StateWords],
		Mems:     b.m.Mems,
		Executed: b.m.Executed,
		Stats:    b.stats,
	}
}

// restoreBase validates shapes and copies the persistent words and
// counters in place.
func (b *base) restoreBase(s *SimState) error {
	if len(s.State) != b.p.StateWords {
		return fmt.Errorf("engine: state image is %d words, engine has %d", len(s.State), b.p.StateWords)
	}
	if len(s.Mems) != len(b.m.Mems) {
		return fmt.Errorf("engine: snapshot has %d memories, engine has %d", len(s.Mems), len(b.m.Mems))
	}
	for i := range s.Mems {
		if len(s.Mems[i]) != len(b.m.Mems[i]) {
			return fmt.Errorf("engine: memory %d is %d words, engine has %d", i, len(s.Mems[i]), len(b.m.Mems[i]))
		}
	}
	// Engine-derived, so the same design has the same value: anything else is
	// a damaged blob, and accepting it would save back different bytes.
	if s.Stats.EvaluableNodes != uint64(len(b.coded)) {
		return fmt.Errorf("engine: snapshot counts %d evaluable nodes, engine has %d", s.Stats.EvaluableNodes, len(b.coded))
	}
	copy(b.m.State, s.State)
	for i := range s.Mems {
		copy(b.m.Mems[i], s.Mems[i])
	}
	b.m.Executed = s.Executed
	b.FlushObs() // bank progress earned before the counters are overwritten
	b.stats = s.Stats
	// Restored history is not newly simulated work: re-baseline so the jump
	// (forward or backward) never reaches the process counters.
	b.obsFlushed = b.stats
	return nil
}

// CaptureState enumerates the full-cycle engine's state: the machine image
// and counters are everything it has (workers hold no per-cycle residue
// between Steps).
func (e *FullCycle) CaptureState() *SimState { return e.captureBase() }

// RestoreState overwrites the full-cycle engine's state.
func (e *FullCycle) RestoreState(s *SimState) error { return e.restoreBase(s) }

// CaptureState enumerates the essential-signal engine's state: machine
// image, counters, the armed supernode set, and any uncommitted registers.
// Outboxes and dirty flags are always drained by the end of a Step (every
// published activation targets a level the sweep still visits, and serial
// commits write active words directly), so nothing else is live.
func (e *Activity) CaptureState() *SimState {
	s := e.captureBase()
	s.SupCount = e.pl.part.Count()
	s.PartPrint = e.pl.partPrint
	for sup, slot := range e.pl.supSlot {
		if e.active[slot>>6]&(uint64(1)<<uint(slot&63)) != 0 {
			s.ActiveSups = append(s.ActiveSups, int32(sup))
		}
	}
	for _, ws := range e.ws {
		s.PendingRegs = e.plan.pendingIDs(s.PendingRegs, ws.pending)
	}
	return s
}

// RestoreState overwrites the essential-signal engine's state, re-deriving
// its private word layout from the snapshot's supernode set and clearing all
// worker residue (outboxes, dirty flags, pending lists) — the same shape a
// fresh engine has.
func (e *Activity) RestoreState(s *SimState) error {
	pending, err := e.plan.checkActivity(s, e.pl.partPrint)
	if err != nil {
		return err
	}
	if err := e.restoreBase(s); err != nil {
		return err
	}
	e.syncShadows()
	e.clearActivity()
	if s.SupCount == 0 {
		e.activateAll() // capture carried no activity info: full re-evaluation is safe
	} else {
		for _, sup := range s.ActiveSups {
			slot := e.pl.supSlot[sup]
			e.active[slot>>6] |= uint64(1) << uint(slot&63)
		}
	}
	// Pending registers land on worker 0: commit drains every worker's list
	// serially and register commits commute (distinct registers, OR-ed
	// activations), so placement does not affect the trajectory.
	e.ws[0].pending = append(e.ws[0].pending, pending...)
	return nil
}

// checkActivity validates a snapshot's activity section against the restoring
// engine's partition, whose fingerprint is partPrint — a capture that carried
// supernode state must come from the same partition (count and membership
// fingerprint), every listed index must be in range and above the
// one before it (the order captures write: a second spelling of one set would
// save back as different bytes), and pending IDs must be registers — before
// any engine state is mutated. It returns the pending registers as plan slots.
func (pl *supPlan) checkActivity(s *SimState, partPrint uint64) ([]int32, error) {
	count := len(pl.sups) - 1
	if s.SupCount != 0 && (s.SupCount != count || s.PartPrint != partPrint) {
		return nil, fmt.Errorf("engine: snapshot partition %016x (%d supernodes) is not this engine's %016x (%d supernodes)",
			s.PartPrint, s.SupCount, partPrint, count)
	}
	for k, sup := range s.ActiveSups {
		if sup < 0 || int(sup) >= count {
			return nil, fmt.Errorf("engine: active supernode %d out of range [0,%d)", sup, count)
		}
		if k > 0 && sup <= s.ActiveSups[k-1] {
			return nil, fmt.Errorf("engine: active supernode list not ascending at entry %d", k)
		}
	}
	if len(s.PendingRegs) == 0 {
		return nil, nil
	}
	byID := make(map[int32]int32, len(pl.regID))
	for ri, id := range pl.regID {
		byID[id] = int32(ri)
	}
	pending := make([]int32, len(s.PendingRegs))
	for k, id := range s.PendingRegs {
		ri, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("engine: pending node %d is not a register", id)
		}
		pending[k] = ri
	}
	return pending, nil
}
