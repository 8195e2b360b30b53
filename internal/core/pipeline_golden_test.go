package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/ir"
)

const designHashesGolden = "testdata/design_hashes.golden"

// graphDigest covers what the design hash leaves out — the names, kinds and
// widths of the optimized graph's nodes in ID order — so a pass that renames
// or reorders the nodes peeks and waveforms address is caught too.
func graphDigest(g *ir.Graph) string {
	h := sha256.New()
	for _, n := range g.Nodes {
		fmt.Fprintf(h, "%s %d %d\n", n.Name, n.Kind, n.Width)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestPipelineGoldenHashes holds the whole compile path (FIRRTL front end,
// passes, topological numbering, emit) to the design hashes recorded in
// testdata/design_hashes.golden. The design hash is the snapshot
// compatibility key (emit/hash.go), so an unchanged file means a snapshot
// saved by an earlier build still restores; a refactor of the passes must
// leave it byte-identical. Regenerate — only for a change that means to move
// the compiled program — with:
//
//	go test ./internal/core -run TestPipelineGoldenHashes -update-golden
func TestPipelineGoldenHashes(t *testing.T) {
	type design struct {
		name  string
		build func() (*ir.Graph, error)
	}
	var designs []design
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata designs found: %v", err)
	}
	for _, fp := range files {
		fp := fp
		designs = append(designs, design{filepath.Base(fp), func() (*ir.Graph, error) { return firrtl.LoadFile(fp) }})
	}
	// Synthetic profiles compile both as built and through the FIRRTL text
	// the service and the benchmark hand to firrtl.Load.
	profiles := []gen.Profile{gen.StuCoreLike()}
	if !testing.Short() {
		profiles = append(profiles, gen.RocketLike())
	}
	for _, p := range profiles {
		p := p
		designs = append(designs,
			design{p.Name, func() (*ir.Graph, error) { return gen.BuildProfile(p), nil }},
			design{p.Name + ".fir", func() (*ir.Graph, error) {
				var buf bytes.Buffer
				if err := firrtl.Write(&buf, gen.BuildProfile(p)); err != nil {
					return nil, err
				}
				return firrtl.Load(buf.String())
			}})
	}
	presets := []Config{GSIM(), Verilator(), Essent(), Arcilator()}

	got := map[string]string{}
	var order []string
	for _, d := range designs {
		g, err := d.build()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		for _, cfg := range presets {
			cd, err := CompileDesign(g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.name, cfg.Name, err)
			}
			key := d.name + " " + cfg.Name
			got[key] = cd.DesignHash() + " " + graphDigest(cd.Graph)
			order = append(order, key)
		}
	}

	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update-golden with -short would drop the rocket-like rows")
		}
		var buf bytes.Buffer
		for _, key := range order {
			fmt.Fprintf(&buf, "%s %s\n", key, got[key])
		}
		if err := os.WriteFile(designHashesGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(designHashesGolden)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed golden line %q", line)
		}
		key, want := f[0]+" "+f[1], f[2]+" "+f[3]
		have, ok := got[key]
		if !ok {
			continue // a rocket-like row under -short
		}
		seen++
		if have != want {
			t.Errorf("%s: design hash + graph digest\n got %s\nwant %s", key, have, want)
		}
	}
	if seen != len(got) {
		t.Errorf("golden file covers %d of the %d compiled (design, preset) pairs", seen, len(got))
	}
}
