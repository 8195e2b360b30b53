package engine

import (
	"fmt"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/partition"
)

// Compiled is a Sim over a compiled program — every engine but Reference:
// it snapshots, traces, reports into a metrics bundle and exposes its
// multi-worker schedule.
type Compiled interface {
	Sim
	Snapshotter
	AttachTracer(Tracer)
	AttachObs(*Metrics)
	FlushObs()
	Shard() *partition.ShardView
}

// Lanes steps K independent stimulus lanes in lockstep, each an ordinary
// compiled engine — normally K engines of one Plan, so the lanes share every
// immutable table and each owns only its state. A lane is observationally a
// scalar engine of its kind, because it is one: state trajectory, stat
// counters, waveform and snapshot bytes all match.
//
// Lanes diverge by parking: SetLive masks a lane out of Step, which then
// skips that lane's engine entirely, so its state, counters and waveform
// freeze mid-run and resume exactly on wake. The live set is one uint64, so
// K is at most 64.
//
// Like every engine, Lanes is single-goroutine: no method may race another.
type Lanes struct {
	lanes []Compiled
	live  uint64 // bit l: lane l advances on Step
	steps uint64 // lockstep cycles (see Cycles)
}

// NewLanes steps the given engines as lanes 0..K-1 of one program, all
// live. It takes ownership: Close closes them.
func NewLanes(engines []Compiled) *Lanes {
	if k := len(engines); k < 1 || k > 64 {
		panic(fmt.Sprintf("engine: %d lanes outside [1,64]", k))
	}
	l := &Lanes{lanes: engines}
	l.live = l.full()
	return l
}

func (l *Lanes) full() uint64 { return ^uint64(0) >> (64 - len(l.lanes)) }

// lane returns one lane's engine; the accessors that cannot return an error
// panic on a lane out of range (callers validate lane numbers first).
func (l *Lanes) lane(lane int) Compiled {
	if err := l.check(lane); err != nil {
		panic(err)
	}
	return l.lanes[lane]
}

// Program returns the lanes' compiled program.
func (l *Lanes) Program() *emit.Program { return l.lanes[0].Machine().Prog }

// LiveMask returns the live set (bit l = lane l advances).
func (l *Lanes) LiveMask() uint64 { return l.live }

// SetLive parks (false) or wakes (true) one lane.
func (l *Lanes) SetLive(lane int, live bool) {
	l.lane(lane)
	if live {
		l.live |= uint64(1) << uint(lane)
	} else {
		l.live &^= uint64(1) << uint(lane)
	}
}

// Cycles is the lockstep cycle count: Step calls since the last Reset,
// parked or not, raised by a restore to the restored lane's cycle (a set of
// lanes refilled one by one from a migrated run continues that run's count).
// One lane cannot park, so its count is the lane's own — a restore may move
// it back as well as forward.
func (l *Lanes) Cycles() uint64 {
	if len(l.lanes) == 1 {
		return l.lanes[0].Stats().Cycles
	}
	return l.steps
}

// Step simulates one clock cycle on every live lane.
func (l *Lanes) Step() {
	l.steps++
	for i, e := range l.lanes {
		if l.live>>uint(i)&1 != 0 {
			e.Step()
		}
	}
}

// Poke sets an input in one lane, effective on its next stepped cycle. A
// parked lane accepts pokes; they apply when it wakes.
func (l *Lanes) Poke(lane, nodeID int, v bitvec.BV) { l.lane(lane).Poke(nodeID, v) }

// Peek returns a node's current value in one lane.
func (l *Lanes) Peek(lane, nodeID int) bitvec.BV { return l.lane(lane).Peek(nodeID) }

// LaneStats returns a copy of one lane's counters.
func (l *Lanes) LaneStats(lane int) Stats { return *l.lane(lane).Stats() }

// AttachLaneTracer routes one lane's waveform through t (nil detaches).
func (l *Lanes) AttachLaneTracer(lane int, t Tracer) { l.lane(lane).AttachTracer(t) }

// ResetLane restores one lane to power-on state without touching the others
// or the live set.
func (l *Lanes) ResetLane(lane int) { l.lane(lane).Reset() }

// Reset restores every lane to power-on state and wakes them all —
// indistinguishable from fresh lanes.
func (l *Lanes) Reset() {
	for _, e := range l.lanes {
		e.Reset()
	}
	l.live = l.full()
	l.steps = 0
}

// Close closes every lane's engine.
func (l *Lanes) Close() {
	for _, e := range l.lanes {
		e.Close()
	}
}

// AttachObs points every lane at a metrics bundle (nil detaches).
func (l *Lanes) AttachObs(m *Metrics) {
	for _, e := range l.lanes {
		e.AttachObs(m)
	}
}

// FlushObs folds every lane's unflushed stats delta into the bundle.
func (l *Lanes) FlushObs() {
	for _, e := range l.lanes {
		e.FlushObs()
	}
}

// CaptureLane is the lane engine's CaptureState, so it aliases live storage:
// serialize it before stepping again.
func (l *Lanes) CaptureLane(lane int) (*SimState, error) {
	if err := l.check(lane); err != nil {
		return nil, err
	}
	return l.lanes[lane].CaptureState(), nil
}

// RestoreLane overwrites one lane's state from a capture (of any lane or any
// scalar engine of the same design); a capture that fails validation leaves
// the lane untouched.
func (l *Lanes) RestoreLane(lane int, s *SimState) error {
	if err := l.check(lane); err != nil {
		return err
	}
	if err := l.lanes[lane].RestoreState(s); err != nil {
		return err
	}
	l.steps = max(l.steps, s.Stats.Cycles)
	return nil
}

func (l *Lanes) check(lane int) error {
	if lane < 0 || lane >= len(l.lanes) {
		return fmt.Errorf("engine: lane %d outside [0,%d)", lane, len(l.lanes))
	}
	return nil
}
