package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusals builds the command and runs it on arguments it must refuse
// with a message and exit status 1 (a panic exits 2): a worker count the
// engine does not take, and a memory write port named as a value to watch
// or poke. The accepted neighbours of each run too.
func TestRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "gsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building gsim: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args []string
		want string // "" for a run that must succeed
	}{
		{[]string{"-engine", "gsim", "-threads", "2", "-cycles", "2", "../../testdata/counter.fir"}, `"threads"`},
		{[]string{"-engine", "essent", "-threads", "2", "-cycles", "2", "../../testdata/counter.fir"}, `"threads"`},
		{[]string{"-engine", "gsim", "-threads", "1", "-cycles", "2", "../../testdata/counter.fir"}, ""},
		{[]string{"-engine", "verilator", "-threads", "2", "-cycles", "2", "../../testdata/counter.fir"}, ""},
		{[]string{"-cycles", "2", "-watch", "buf.w", "../../testdata/fifo.fir"}, "memory write port"},
		{[]string{"-cycles", "2", "-poke", "buf.w=1", "../../testdata/fifo.fir"}, "memory write port"},
		{[]string{"-cycles", "2", "-poke", "push=1", "-watch", "cnt", "../../testdata/fifo.fir"}, ""},
	} {
		cmd := exec.Command(bin, c.args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		if c.want == "" {
			if err != nil {
				t.Errorf("gsim %s: %v\n%s", strings.Join(c.args, " "), err, stderr.String())
			}
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("gsim %s: %v, stderr %q; want exit status 1 naming %s", strings.Join(c.args, " "), err, stderr.String(), c.want)
		}
	}
}
