// Package trace is the asynchronous waveform pipeline: a VCD writer whose
// formatting and I/O run on a dedicated goroutine, fed by a bounded ring of
// per-cycle state snapshots. The paper motivates software simulation with
// "100% signal visibility"; before this package, visibility came at the price
// of serializing the parallel sweep — VCD sampling (value formatting plus
// file writes) ran on the coordinator between cycles, inside the only serial
// window the GSIMMT engine has. The pipeline moves everything but a bounded
// memcpy off the coordinator:
//
//	coordinator (per cycle)            writer goroutine
//	--------------------------         ------------------------------
//	Snapshot: pack traced words   -->  diff against previous image,
//	into a free ring slot (block       format value changes, write
//	only when the ring is full)        VCD text, recycle the slot
//
// Output is byte-for-byte identical to the synchronous mode (Options.Sync) —
// the golden-waveform suite pins both against the same committed files — and
// deterministic regardless of scheduling, because the byte stream depends
// only on the snapshot sequence. Errors from the underlying io.Writer are
// captured at the first failing write, published on Err, and returned from
// Close; after an error the writer keeps draining (and discarding) snapshots
// so the simulation never deadlocks on a dead sink.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"gsim/internal/bitvec"
	"gsim/internal/emit"
	"gsim/internal/ir"
)

// DefaultRing is the snapshot ring depth used when Options.Ring is zero:
// deep enough to hide write bursts (a page flush, a slow disk) without
// letting the writer fall unboundedly behind the simulation.
const DefaultRing = 8

// Options configures a waveform pipeline.
type Options struct {
	// Ring is the snapshot ring depth (bounded backpressure window). Zero
	// selects DefaultRing; negative values are treated as 1.
	Ring int
	// Sync disables the pipeline: Snapshot formats and writes on the calling
	// goroutine. It is the measurable baseline for the async path (gsim-diag
	// reports both) and the writer that renders the golden waveforms.
	Sync bool
	// Resume continues a waveform across a snapshot/restore boundary: no
	// header is written, the first Snapshot is stamped Resume.Time, and the
	// diff base is seeded from Resume.State instead of emitting a full dump.
	// Appending the resumed stream to the bytes written up to the checkpoint
	// reproduces an uninterrupted run's VCD exactly (the snapshot round-trip
	// suite pins this).
	Resume *Resume
	// Metrics, when non-nil, credits pipeline activity (snapshots, stalls,
	// occupancy, sink bytes, errors) to the process-wide trace bundle. Nil
	// leaves the pipeline uninstrumented.
	Metrics *Metrics
}

// Resume is the waveform continuation point after a snapshot restore.
type Resume struct {
	// Time is the VCD timestamp of the first post-restore cycle — the number
	// of cycles the restored engine has already simulated (Stats.Cycles).
	Time uint64
	// State is the restored engine's state image; the traced nodes' current
	// values seed the change detector, exactly as if the writer had emitted
	// them last cycle.
	State []uint64
}

// field is one traced node: where its value lives in the engine state image,
// where it lives in the packed snapshot, and how it renders.
type field struct {
	off   int32  // state-image word offset (Program.Off)
	pos   int32  // packed snapshot word offset
	words int32  // value width in words
	mask  uint64 // top-word mask for the node's bit width
	width int    // bit width
	id    string // VCD identifier
}

// VCD is the pipelined waveform writer. Construct with NewVCD, feed one
// Snapshot per simulated cycle (engines attached via AttachTracer do this
// automatically at the end of every Step), then Close.
type VCD struct {
	w      *bufio.Writer
	fields []field
	words  int32 // packed snapshot size

	sync bool

	// Pipeline channels: free slots flow coordinator-ward, filled snapshots
	// writer-ward. Both carry the same fixed set of buffers, so memory stays
	// bounded at ring × snapshot size.
	free chan []uint64
	full chan []uint64
	done chan struct{}

	closeOnce sync.Once
	closeErr  error

	errOnce sync.Once
	errCh   chan error
	errMu   sync.Mutex
	err     error

	// Writer-goroutine state (coordinator-owned in Sync mode).
	last    []uint64
	opened  bool
	time    uint64
	syncBuf []uint64

	m *Metrics // nil = uninstrumented
}

// SelectNodes returns the default trace set — every input, register, and
// output, sorted by name.
func SelectNodes(g *ir.Graph) []*ir.Node {
	var nodes []*ir.Node
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		if n.Kind == ir.KindInput || n.Kind == ir.KindReg || n.IsOutput {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes
}

// NewVCD builds a waveform pipeline over the given nodes (SelectNodes(p.Graph)
// when nodes is nil), writes the VCD header synchronously, and — unless
// opt.Sync — starts the writer goroutine.
func NewVCD(w io.Writer, p *emit.Program, nodes []*ir.Node, opt Options) (*VCD, error) {
	if nodes == nil {
		nodes = SelectNodes(p.Graph)
	}
	if opt.Metrics != nil {
		// Count under the bufio layer so Bytes reports what actually
		// reached the sink, not what entered the buffer.
		w = &countingWriter{w: w, c: opt.Metrics.Bytes}
	}
	v := &VCD{w: bufio.NewWriter(w), sync: opt.Sync, m: opt.Metrics}
	v.fields = make([]field, len(nodes))
	var pos int32
	for i, n := range nodes {
		words := p.WordsOf[n.ID] // >= 1: traceable nodes always carry storage
		v.fields[i] = field{
			off:   p.Off[n.ID],
			pos:   pos,
			words: words,
			mask:  bitvec.TopMask(n.Width),
			width: n.Width,
			id:    vcdID(i),
		}
		pos += words
	}
	v.words = pos
	v.last = make([]uint64, v.words)
	if opt.Resume != nil {
		// Continuation stream: skip the header, seed the diff base from the
		// restored image, and stamp from the resume time onward.
		v.pack(opt.Resume.State, v.last)
		v.opened = true
		v.time = opt.Resume.Time
	} else if err := v.header(nodes); err != nil {
		return nil, err
	}
	if v.sync {
		v.syncBuf = make([]uint64, v.words)
		return v, nil
	}
	ring := opt.Ring
	if ring == 0 {
		ring = DefaultRing
	}
	if ring < 1 {
		ring = 1
	}
	v.free = make(chan []uint64, ring)
	v.full = make(chan []uint64, ring)
	v.done = make(chan struct{})
	v.errCh = make(chan error, 1)
	for i := 0; i < ring; i++ {
		v.free <- make([]uint64, v.words)
	}
	go v.writer()
	return v, nil
}

// vcdID generates the compact printable identifiers VCD uses.
func vcdID(i int) string {
	const chars = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var sb strings.Builder
	for {
		sb.WriteByte(chars[i%len(chars)])
		i /= len(chars)
		if i == 0 {
			return sb.String()
		}
	}
}

func (v *VCD) header(nodes []*ir.Node) error {
	fmt.Fprintf(v.w, "$date gsim $end\n$version gsim reproduction $end\n$timescale 1ns $end\n")
	fmt.Fprintf(v.w, "$scope module top $end\n")
	for i, n := range nodes {
		name := strings.ReplaceAll(n.Name, ".", "_")
		fmt.Fprintf(v.w, "$var wire %d %s %s $end\n", n.Width, v.fields[i].id, name)
	}
	fmt.Fprintf(v.w, "$upscope $end\n$enddefinitions $end\n")
	return v.w.Flush()
}

// Snapshot captures one cycle: the traced nodes' current words are packed
// (and top-masked) out of the engine state image into a ring slot. When every
// slot is in flight the call blocks until the writer frees one — bounded
// backpressure, so a slow sink throttles the simulation instead of growing an
// unbounded queue, and a failed sink never blocks it at all (the writer keeps
// recycling slots after an error). Snapshot must come from one goroutine (the
// engine coordinator); it is not safe to call concurrently with Close.
func (v *VCD) Snapshot(st []uint64) {
	if v.m != nil {
		v.m.Snapshots.Inc()
	}
	if v.sync {
		v.pack(st, v.syncBuf)
		v.encode(v.syncBuf)
		return
	}
	var buf []uint64
	select {
	case buf = <-v.free:
	default:
		// Ring full: this capture will block the coordinator until the
		// writer recycles a slot — the backpressure event worth counting.
		if v.m != nil {
			v.m.Stalls.Inc()
		}
		buf = <-v.free
	}
	v.pack(st, buf)
	v.full <- buf
	if v.m != nil {
		v.m.RingOccupancy.Set(float64(len(v.full)))
	}
}

// pack copies the traced words into a snapshot buffer, masking each field's
// top word to its bit width — the packed image then compares and renders
// exactly like the node's value as Peek returns it.
func (v *VCD) pack(st, buf []uint64) {
	for i := range v.fields {
		f := &v.fields[i]
		copy(buf[f.pos:f.pos+f.words], st[f.off:f.off+f.words])
		buf[f.pos+f.words-1] &= f.mask
	}
}

// flushEvery bounds both the syscall rate (the bufio buffer batches small
// per-cycle deltas between flushes) and the error-detection latency (a dead
// sink surfaces within this many cycles even when deltas are tiny).
const flushEvery = 64

// writer drains the ring: diff, format, write, recycle. Runs until Close
// closes the full channel; setErr after the first failed write flips it into
// drain-only mode.
func (v *VCD) writer() {
	defer close(v.done)
	n := 0
	for buf := range v.full {
		if v.getErr() == nil {
			if err := v.encode(buf); err != nil {
				v.setErr(err)
			} else if n++; n%flushEvery == 0 {
				if err := v.w.Flush(); err != nil {
					v.setErr(err)
				}
			}
		}
		v.free <- buf
	}
}

// encode emits one cycle's value changes: a #time stamp only when something
// changed, width-1 signals as single digits, wider values as
// leading-zero-suppressed binary.
// The returned error is bufio's sticky write error — it surfaces once the
// buffer has actually spilled to the failed sink.
func (v *VCD) encode(buf []uint64) error {
	var err error
	wrote := false
	for i := range v.fields {
		f := &v.fields[i]
		cur := buf[f.pos : f.pos+f.words]
		if v.opened && wordsEqual(cur, v.last[f.pos:f.pos+f.words]) {
			continue
		}
		if !wrote {
			if _, e := fmt.Fprintf(v.w, "#%d\n", v.time); e != nil && err == nil {
				err = e
			}
			wrote = true
		}
		if e := v.emit(f, cur); e != nil && err == nil {
			err = e
		}
		copy(v.last[f.pos:f.pos+f.words], cur)
	}
	v.opened = true
	v.time++
	return err
}

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (v *VCD) emit(f *field, words []uint64) error {
	if f.width == 1 {
		_, err := fmt.Fprintf(v.w, "%d%s\n", words[0]&1, f.id)
		return err
	}
	var sb strings.Builder
	sb.WriteByte('b')
	started := false
	for i := f.width - 1; i >= 0; i-- {
		b := (words[i/64] >> uint(i%64)) & 1
		if !started && b == 0 && i > 0 {
			continue // VCD allows leading-zero suppression
		}
		started = true
		sb.WriteByte(byte('0' + b))
	}
	if !started {
		sb.WriteByte('0')
	}
	_, err := fmt.Fprintf(v.w, "%s %s\n", sb.String(), f.id)
	return err
}

// Err returns a channel that receives the first write error (capacity one,
// never closed). Poll it mid-run to notice a dead sink before Close. In Sync
// mode there is no writer goroutine and the channel is nil (a nil channel
// never delivers; poll with a default case) — errors surface from Close.
func (v *VCD) Err() <-chan error { return v.errCh }

func (v *VCD) setErr(err error) {
	v.errOnce.Do(func() {
		v.errMu.Lock()
		v.err = err
		v.errMu.Unlock()
		if v.m != nil {
			v.m.Errors.Inc()
		}
		if v.errCh != nil {
			v.errCh <- err
		}
	})
}

func (v *VCD) getErr() error {
	v.errMu.Lock()
	defer v.errMu.Unlock()
	return v.err
}

// Flush pushes buffered output to the underlying writer without ending the
// trace — a consistent mid-run waveform read (e.g. serving a live session's
// VCD over HTTP). Only synchronous tracers support it: in pipelined mode the
// writer goroutine owns the buffer and a coordinator-side flush would race it.
// Flush must not race Snapshot: stop stepping the engine first.
func (v *VCD) Flush() error {
	if !v.sync {
		return fmt.Errorf("trace: Flush requires a synchronous tracer (Options.Sync)")
	}
	return v.w.Flush()
}

// Close drains the pipeline and flushes the stream: every snapshot taken
// before Close is formatted and written (or discarded, after a write error)
// before Close returns. The first error — mid-run write failure or final
// flush — is returned; calling Close again returns the same result. Close
// must not race Snapshot: stop stepping the engine first.
func (v *VCD) Close() error {
	v.closeOnce.Do(func() {
		if v.sync {
			v.closeErr = v.w.Flush()
			return
		}
		close(v.full)
		<-v.done
		if err := v.getErr(); err != nil {
			v.closeErr = err
			return
		}
		v.closeErr = v.w.Flush()
	})
	return v.closeErr
}
