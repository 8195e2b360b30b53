// Package snapshot serializes complete simulator state — the durable half of
// the simulation-as-a-service split. A compiled design (emit.Program) is an
// immutable artifact; everything that changes as a simulation runs fits in an
// engine.SimState (persistent state words, memories, counters, activity
// arming). This package turns that state into a versioned, deterministic
// byte blob and back, so a run can stop, persist, move between processes (or
// engines, or thread counts), and resume bit-identically — final state
// image, stat counters, and waveform bytes all match an uninterrupted run.
//
// Format (all integers little-endian):
//
//	magic      [8]byte  "GSIMSNAP"
//	version    u32      format version (currently 3)
//	designHash [32]byte emit.Program.DesignHash of the build that captured it
//	cycles     u64      Stats.Cycles at capture (redundant with the stats
//	                    section; lets tools report resume points header-only)
//	state      u64 n, then n x u64        persistent state words, [0, StateWords)
//	mems       u64 k, then k x (u64 n, n x u64)
//	executed   u64                        Machine.Executed
//	stats      8 x u64                    the engine.Stats block
//	supCount   u64                        capturing partition size (0 = none)
//	partPrint  u64                        its membership fingerprint (0 = none)
//	active     u64 n, then n x u32        armed supernode indices, ascending
//	pending    u64 0                      uncommitted registers: always none
//
// Compatibility rule: Restore requires the snapshot's design hash to equal
// the target Program's. The hash covers the instruction stream, storage
// layout, initial image, and memory specs — everything that gives state-image
// words their meaning — so equal hashes make images interchangeable even
// across engines, eval modes, and thread counts (the activity section is
// stored in partition space, not engine-word space, for the same reason).
// Unequal hashes (different design, different optimization level) refuse to
// restore instead of corrupting silently. The hash does not cover the
// partition, so the activity section names its own (supCount, partPrint),
// and an essential-signal engine refuses a section from another partition.
// The state section carries only the persistent words: register next values
// and expression temporaries are scratch, written before they are read
// inside every Step, so no blob carries them — and so no blob can list a
// register whose next value is still pending: Decode refuses a nonzero
// pending count. The empty partition (a design with no evaluable node) has
// a fingerprint of its own, partition.EmptyFingerprint, which an
// essential-signal engine of such a design writes with supCount 0. Blobs
// of the layout before next values became scratch carry another design
// hash and are refused by it. The version field gates format
// evolution: readers reject versions they do not understand. Version 2
// added partPrint; version 3 dropped the temporaries from the state
// section. Version 1 and 2 blobs are refused.
package snapshot

import (
	"encoding/binary"
	"fmt"

	"gsim/internal/emit"
	"gsim/internal/engine"
	"gsim/internal/faultpoint"
	"gsim/internal/partition"
)

// Magic identifies a gsim snapshot blob.
const Magic = "GSIMSNAP"

// Version is the current format version.
const Version = 3

const headerBytes = 8 + 4 + 32 + 8

// Header is the fixed-size snapshot prefix.
type Header struct {
	Version    uint32
	DesignHash [32]byte
	Cycles     uint64
}

// ErrNotSnapshotter marks engines without state enumeration (none in-tree).
var ErrNotSnapshotter = fmt.Errorf("snapshot: engine does not implement engine.Snapshotter")

// Save captures sim's complete state and serializes it. Call between Steps
// only. The sim must expose a compiled program (engine.Reference does not).
func Save(sim engine.Sim) ([]byte, error) {
	sn, ok := sim.(engine.Snapshotter)
	if !ok {
		return nil, ErrNotSnapshotter
	}
	m := sim.Machine()
	if m == nil {
		return nil, fmt.Errorf("snapshot: engine has no compiled program")
	}
	return seal(sn.CaptureState(), m.Prog)
}

// seal encodes a capture for saving — the one path every saved blob leaves
// through, and so the one place the SnapshotCorrupt faultpoint bites.
func seal(st *engine.SimState, p *emit.Program) ([]byte, error) {
	data, err := Encode(st, p)
	if err == nil && faultpoint.Hit(faultpoint.SnapshotCorrupt) {
		// Model a corrupted blob (torn write, bit rot in transit). Smashing
		// the magic and the design hash guarantees every reader detects it —
		// a corrupt snapshot must be an error on restore, never silent state.
		data[0] ^= 0xff
		data[12] ^= 0xff
	}
	return data, err
}

// Restore deserializes data and overwrites sim's state with it, after
// validating the format version and the design-hash compatibility rule
// against sim's own compiled program. Call between Steps only.
func Restore(sim engine.Sim, data []byte) error {
	sn, ok := sim.(engine.Snapshotter)
	if !ok {
		return ErrNotSnapshotter
	}
	m := sim.Machine()
	if m == nil {
		return fmt.Errorf("snapshot: engine has no compiled program")
	}
	st, err := Decode(data, m.Prog)
	if err != nil {
		return err
	}
	return sn.RestoreState(st)
}

// SaveLane captures one lane of a lane-addressed engine (engine.Lanes) and
// serializes it in the standard scalar format. A lane is a scalar engine, so
// its blob is byte-identical to Save of a scalar engine of the same kind that
// ran the same stimulus, and restores into either shape.
func SaveLane(e interface {
	CaptureLane(lane int) (*engine.SimState, error)
	Program() *emit.Program
}, lane int) ([]byte, error) {
	st, err := e.CaptureLane(lane)
	if err != nil {
		return nil, err
	}
	return seal(st, e.Program())
}

// Encode serializes a captured state for the given program. The output is
// deterministic: the same state and program always produce the same bytes.
func Encode(st *engine.SimState, p *emit.Program) ([]byte, error) {
	size := headerBytes
	size += 8 + 8*len(st.State)
	size += 8
	for _, mem := range st.Mems {
		size += 8 + 8*len(mem)
	}
	size += 8     // executed
	size += 8 * 8 // stats
	size += 8 + 8 // supCount, partPrint
	size += 8 + 4*len(st.ActiveSups)
	size += 8 // pending: none

	buf := make([]byte, size)
	w := writer{buf: buf}
	w.bytes([]byte(Magic))
	w.u32(Version)
	hash := p.DesignHash()
	w.bytes(hash[:])
	w.u64(st.Stats.Cycles)
	w.words(st.State)
	w.u64(uint64(len(st.Mems)))
	for _, mem := range st.Mems {
		w.words(mem)
	}
	w.u64(st.Executed)
	w.stats(&st.Stats)
	w.u64(uint64(st.SupCount))
	w.u64(st.PartPrint)
	w.i32s(st.ActiveSups)
	w.u64(0)
	if w.off != len(buf) {
		return nil, fmt.Errorf("snapshot: internal size mismatch: wrote %d of %d", w.off, len(buf))
	}
	return buf, nil
}

// ReadHeader parses and validates the fixed-size prefix without decoding the
// body — enough to report a blob's resume cycle and check compatibility.
func ReadHeader(data []byte) (Header, error) {
	var h Header
	if len(data) < headerBytes {
		return h, fmt.Errorf("snapshot: truncated header (%d bytes)", len(data))
	}
	if string(data[:8]) != Magic {
		return h, fmt.Errorf("snapshot: bad magic %q", data[:8])
	}
	h.Version = binary.LittleEndian.Uint32(data[8:])
	if h.Version != Version {
		return h, fmt.Errorf("snapshot: unsupported format version %d (this build reads %d)", h.Version, Version)
	}
	copy(h.DesignHash[:], data[12:44])
	h.Cycles = binary.LittleEndian.Uint64(data[44:])
	return h, nil
}

// Decode deserializes a snapshot, validating the header against p's design
// hash. The returned state aliases freshly decoded slices (never data).
func Decode(data []byte, p *emit.Program) (*engine.SimState, error) {
	h, err := ReadHeader(data)
	if err != nil {
		return nil, err
	}
	if want := p.DesignHash(); h.DesignHash != want {
		return nil, fmt.Errorf("snapshot: design hash %x does not match this build's %x: snapshot was taken on a different design or optimization level",
			h.DesignHash[:8], want[:8])
	}
	r := reader{buf: data, off: headerBytes}
	st := &engine.SimState{}
	st.State = r.words()
	nMems := r.u64()
	if nMems > uint64(len(data)) { // cheap sanity bound before allocating
		return nil, fmt.Errorf("snapshot: implausible memory count %d", nMems)
	}
	st.Mems = make([][]uint64, 0, nMems)
	for i := uint64(0); i < nMems; i++ {
		st.Mems = append(st.Mems, r.words())
	}
	st.Executed = r.u64()
	r.stats(&st.Stats)
	st.SupCount = int(r.u64())
	st.PartPrint = r.u64()
	st.ActiveSups = r.i32s()
	pending := r.i32s()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes", len(data)-r.off)
	}
	if h.Cycles != st.Stats.Cycles {
		return nil, fmt.Errorf("snapshot: header cycles %d disagree with stats %d", h.Cycles, st.Stats.Cycles)
	}
	if st.SupCount == 0 && st.PartPrint != 0 && st.PartPrint != partition.EmptyFingerprint {
		return nil, fmt.Errorf("snapshot: partition fingerprint %016x without a partition", st.PartPrint)
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("snapshot: %d pending registers: next values are not part of a snapshot", len(pending))
	}
	return st, nil
}

// writer appends fixed-width little-endian fields to a pre-sized buffer.
type writer struct {
	buf []byte
	off int
}

func (w *writer) bytes(b []byte) { copy(w.buf[w.off:], b); w.off += len(b) }
func (w *writer) u32(v uint32)   { binary.LittleEndian.PutUint32(w.buf[w.off:], v); w.off += 4 }
func (w *writer) u64(v uint64)   { binary.LittleEndian.PutUint64(w.buf[w.off:], v); w.off += 8 }

func (w *writer) words(vs []uint64) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.u64(v)
	}
}

func (w *writer) i32s(vs []int32) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.u32(uint32(v))
	}
}

func (w *writer) stats(s *engine.Stats) {
	for _, v := range statsFields(s) {
		w.u64(*v)
	}
}

// reader consumes fixed-width little-endian fields, remembering the first
// truncation error and returning zero values after it.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: truncated at byte %d of %d", r.off, len(r.buf))
	}
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) words() []uint64 {
	n := r.u64()
	if r.err != nil || n > uint64(len(r.buf)-r.off)/8 {
		r.fail()
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.buf[r.off:])
		r.off += 8
	}
	return out
}

func (r *reader) i32s() []int32 {
	n := r.u64()
	if r.err != nil || n > uint64(len(r.buf)-r.off)/4 {
		r.fail()
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(r.buf[r.off:]))
		r.off += 4
	}
	return out
}

func (r *reader) stats(s *engine.Stats) {
	for _, v := range statsFields(s) {
		*v = r.u64()
	}
}

// statsFields fixes the serialization order of the Stats block. Append-only:
// reordering or removing entries is a format version bump.
func statsFields(s *engine.Stats) [8]*uint64 {
	return [8]*uint64{
		&s.Cycles, &s.NodeEvals, &s.Activations, &s.Examinations,
		&s.InstrsExecuted, &s.RegCommits, &s.EvaluableNodes, &s.ResetFastSkips,
	}
}
