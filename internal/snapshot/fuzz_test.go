package snapshot_test

import (
	"bytes"
	"testing"

	"gsim/internal/core"
	"gsim/internal/snapshot"
)

// FuzzSnapshotRestore holds Restore to its contract on untrusted bytes — the
// session server and the migration path hand it whatever a client or a peer
// posts: any input is refused with an error that leaves the engine exactly
// as it was, or restores a state that saves back to the same bytes and can
// be stepped; never a panic, never a half-restored engine. Every iteration
// gets a fresh engine over one compiled design, so a failure reproduces from
// its input alone. The seeds are a real blob of the essential-signal engine
// (memory, armed supernodes, pending registers, its partition's
// fingerprint), the same blob in format versions 1 and 2, and damaged copies
// of it; `go test -fuzz=FuzzSnapshotRestore ./internal/snapshot` explores
// from there (CI rotates it with the other targets).
func FuzzSnapshotRestore(f *testing.F) {
	cfg := core.GSIM()
	design, err := core.CompileDesign(loadDesign(f, "lfsr.fir"), cfg)
	if err != nil {
		f.Fatal(err)
	}
	sim, err := design.NewSim(cfg)
	if err != nil {
		f.Fatal(err)
	}
	pristine, err := snapshot.Save(sim)
	if err != nil {
		f.Fatal(err)
	}
	ins := inputsOf(design.Graph)
	for c := 0; c < 20; c++ {
		drive(sim, ins, c)
		sim.Step()
	}
	drive(sim, ins, 20) // poked, not stepped: supernodes armed at capture
	good, err := snapshot.Save(sim)
	if err != nil {
		f.Fatal(err)
	}
	sim.Close()
	f.Add(good)
	f.Add(pristine)
	f.Add(v1Blob(f, good, design.Prog))
	f.Add(fullImageBlob(f, good, design.Prog, 2))
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte{}, good...), 0))
	for _, at := range []int{0, 8, 12, 44, 52, 60, partPrintAt(f, good, design.Prog), len(good) - 12, len(good) - 4} {
		bad := append([]byte{}, good...)
		bad[at] ^= 0x81
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sim, err := design.NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		if err := snapshot.Restore(sim, data); err != nil {
			after, err := snapshot.Save(sim)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, pristine) {
				t.Fatal("a refused restore changed the engine")
			}
			return
		}
		after, err := snapshot.Save(sim)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data) {
			t.Fatal("a restored state saves to different bytes than it was restored from")
		}
		for c := 0; c < 3; c++ {
			drive(sim, ins, c)
			sim.Step()
		}
	})
}
