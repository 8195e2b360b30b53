package engine

import (
	"fmt"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
)

// Compiled is a Sim over a compiled program — every engine but Reference:
// it snapshots, traces and reports into a metrics bundle.
type Compiled interface {
	Sim
	Snapshotter
	AttachTracer(Tracer)
	AttachObs(*Metrics)
	FlushObs()
}

// OneLane is a compiled scalar engine addressed the way a Gang is: lane 0
// is the engine, the live mask is fixed at 1 and the cycle count is the
// engine's own, so one caller can drive both shapes through one code path.
// Its one lane cannot be parked. Like a gang lane out of range, any other
// lane panics in the accessors and is an error in capture and restore. Step,
// Reset, Close, AttachObs and FlushObs are the engine's own.
type OneLane struct{ Compiled }

func laneErr(lane int) error {
	if lane != 0 {
		return fmt.Errorf("engine: lane %d outside [0,1)", lane)
	}
	return nil
}

func lane0(lane int) {
	if err := laneErr(lane); err != nil {
		panic(err)
	}
}

func (o OneLane) Poke(lane, nodeID int, v bitvec.BV)  { lane0(lane); o.Compiled.Poke(nodeID, v) }
func (o OneLane) Peek(lane, nodeID int) bitvec.BV     { lane0(lane); return o.Compiled.Peek(nodeID) }
func (o OneLane) ResetLane(lane int)                  { lane0(lane); o.Reset() }
func (o OneLane) SetLive(int, bool)                   { panic("engine: a one-lane engine cannot park its lane") }
func (o OneLane) LiveMask() uint64                    { return 1 }
func (o OneLane) Cycles() uint64                      { return o.Stats().Cycles }
func (o OneLane) LaneStats(lane int) Stats            { lane0(lane); return *o.Stats() }
func (o OneLane) AttachLaneTracer(lane int, t Tracer) { lane0(lane); o.AttachTracer(t) }
func (o OneLane) Program() *emit.Program              { return o.Machine().Prog }

// CaptureLane is the engine's CaptureState, so unlike a gang lane's capture
// it aliases live storage: serialize it before stepping again.
func (o OneLane) CaptureLane(lane int) (*SimState, error) {
	if err := laneErr(lane); err != nil {
		return nil, err
	}
	return o.CaptureState(), nil
}

func (o OneLane) RestoreLane(lane int, s *SimState) error {
	if err := laneErr(lane); err != nil {
		return err
	}
	return o.RestoreState(s)
}
