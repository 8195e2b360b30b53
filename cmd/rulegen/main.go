// Command rulegen compiles the declarative tables in internal/emit/rules
// into the Go the kernel compiler and the passes pipeline run in
// production: internal/emit/fuse_gen.go (the superinstruction fusion
// matchers and every narrow and fused-window kernel, from the value table)
// and internal/passes/simplify_gen.go (algebraic simplification).
//
// It is wired through `go generate ./internal/emit/...` (the directive
// lives in the rules package, so the default output paths are relative to
// that directory). CI regenerates and fails on any diff, and the rules test
// suite compares the committed files against fresh generator output, so the
// generated matchers can never drift from the tables.
package main

import (
	"flag"
	"fmt"
	"os"

	"gsim/internal/emit/rules"
)

func main() {
	fuseOut := flag.String("fuse", "../fuse_gen.go", "output path for the fusion matcher")
	simplifyOut := flag.String("simplify", "../../passes/simplify_gen.go", "output path for the algebraic rewriter")
	flag.Parse()
	for _, out := range []struct {
		path string
		gen  func() ([]byte, error)
	}{
		{*fuseOut, rules.GenerateFuse},
		{*simplifyOut, rules.GenerateSimplify},
	} {
		src, err := out.gen()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rulegen:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(out.path, src, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "rulegen:", err)
			os.Exit(1)
		}
		fmt.Println("rulegen: wrote", out.path)
	}
}
