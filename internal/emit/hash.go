package emit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// DesignHash returns a stable identity for the compiled artifact: a SHA-256
// over everything that determines execution semantics and state layout — the
// instruction stream, the storage maps, the split of the state image into
// persistent words, next values and a temporary region, the initial image,
// and the memory specs. Two Programs with equal hashes have interchangeable
// state images, so the hash is the compatibility rule for snapshots
// (internal/snapshot stamps it into every header and refuses to restore
// across a mismatch) and the natural identity for compiled-design caching.
// The compilation pipeline is deterministic (the golden-VCD suite depends
// on that), so rebuilding the same design with the same options reproduces
// the same hash.
//
// The hash is computed once and memoized; Program is immutable after Compile,
// so concurrent callers (server sessions sharing one Program) are safe.
func (p *Program) DesignHash() [32]byte {
	p.hashOnce.Do(func() { p.hash = p.computeHash() })
	return p.hash
}

// DesignHashString returns the hash in hex, for cache keys and API responses.
func (p *Program) DesignHashString() string { return fmt.Sprintf("%x", p.DesignHash()) }

func (p *Program) computeHash() [32]byte {
	h := sha256.New()
	var buf [8]byte
	wU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wI32s := func(vs []int32) {
		for _, v := range vs {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
	}
	wWords := func(vs []uint64) {
		for _, v := range vs {
			wU64(v)
		}
	}

	wU64(uint64(p.StateWords))
	wU64(uint64(p.NextWords))
	wU64(uint64(p.TempWords))
	wWords(p.Init)
	wU64(uint64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		wI32s([]int32{int32(in.Op), in.DW, in.AW, in.BW, in.D, in.A, in.B, in.C, in.Hi, in.Lo})
	}
	wU64(uint64(len(p.Code)))
	for _, r := range p.Code {
		wI32s([]int32{r.Start, r.End})
	}
	wI32s(p.Off)
	wI32s(p.NextOff)
	wI32s(p.WordsOf)
	wI32s(p.WAddrOff)
	wI32s(p.WDataOff)
	wI32s(p.WEnOff)
	wU64(uint64(len(p.Mems)))
	for i := range p.Mems {
		m := &p.Mems[i]
		wU64(uint64(m.Depth))
		wU64(uint64(m.Width))
		wU64(uint64(m.WordsPer))
		wWords(m.Init)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
