package firrtl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsim/internal/ir"
)

// FuzzFIRRTLLoad holds the front end to its contract on untrusted bytes —
// the session server hands it whatever a client posts: any input yields an
// error or a graph that passes Validate, aliases no expression tree and
// survives a Write → Load round trip; never a panic. Inputs are capped so a mutated width or depth cannot
// turn one iteration into minutes. The seed corpus is the committed
// testdata designs; `go test -fuzz=FuzzFIRRTLLoad ./internal/firrtl`
// explores from there (CI rotates it with the other targets).
func FuzzFIRRTLLoad(f *testing.F) {
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata designs found: %v", err)
	}
	for _, fp := range files {
		data, err := os.ReadFile(fp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("circuit T :\n  module T :\n    input a : UInt<1>\n    output o : UInt<1>\n    o <= a\n"))
	f.Add([]byte("circuit"))
	f.Add([]byte("UInt<"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("input over the size cap")
		}
		g, err := Load(string(data))
		if err != nil {
			return
		}
		bits := 0
		for _, n := range g.Nodes {
			bits += n.Width
		}
		for _, m := range g.Mems {
			bits += m.Depth * m.Width
		}
		if bits > 1<<22 {
			t.Skip("design too large to render")
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Load returned an invalid graph: %v", err)
		}
		// passes.Run's precondition: no expression reachable from two places.
		owner := map[*ir.Expr]*ir.Node{}
		for _, n := range g.Nodes {
			n.EachExpr(func(slot **ir.Expr) {
				(*slot).Walk(func(e *ir.Expr) {
					if prev, dup := owner[e]; dup {
						t.Fatalf("Load aliased expression %s between %s and %s", e, prev, n)
					}
					owner[e] = n
				})
			})
		}
		var sb strings.Builder
		if err := Write(&sb, g); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := Load(sb.String()); err != nil {
			t.Fatalf("round trip: %v\n--- emitted ---\n%s", err, clip(sb.String()))
		}
	})
}
