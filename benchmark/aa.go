package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A check: the same code, the same seed, n fresh processes
// per workload (a fresh process per run is what a comparison between two
// commits does, so heap layout and page placement vary the way they will
// there). Odd and even runs form two alternating sets. For every end-to-end
// metric it prints the median, the quartiles, the spread (quartile distance
// over median), the gap between the two sets' medians, the largest gap
// between any two runs, and the bound. It fails if a spread or a set gap
// exceeds the bound — the two quantities the acceptance driver holds against
// it; like the driver it lets setup_s's spread pass, not its set gap — or if
// digests or exact counts differ between runs. The largest
// run-to-run gap is printed but not held against the bound: it is the
// extreme of n draws and grows with n, while the bound limits a median.
func runAA(todo []workload, n int, seed int64, seconds int, size string, log io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	over := 0
	for _, w := range todo {
		values := map[string][]float64{}
		var first *childRun
		for i := 0; i < n; i++ {
			c, err := runChild(self, w.name, seed, seconds, size)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			fmt.Fprintf(log, "%s run %d/%d: %.1fs digest %.12s\n", w.name, i+1, n, c.detail.WallS, c.detail.Digest)
			if first == nil {
				first = c
			} else if c.detail.Digest != first.detail.Digest || !equalCounts(c.detail.Counts, first.detail.Counts) ||
				c.result.Attempted != first.result.Attempted {
				return fmt.Errorf("%s run %d: digest or counts differ from run 0 with the same seed", w.name, i)
			}
			for name, m := range c.result.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(log, "\n%-18s %-15s %12s %12s %12s %8s %8s %8s %7s\n", "workload", "metric", "median", "q1", "q3", "spread", "set gap", "max gap", "bound")
		for _, d := range endToEnd {
			xs := values[d.name]
			var sets [2][]float64
			for i, x := range xs {
				sets[i%2] = append(sets[i%2], x)
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			setGap := 0.0
			if len(sets[1]) > 0 {
				setGap = relGap(median(sets[1]), median(sets[0]))
			}
			s := sorted(xs)
			maxGap := relGap(s[len(s)-1], s[0])
			flag := ""
			if (spread > d.bound && d.name != "setup_s") || setGap > d.bound {
				flag = "  OVER"
				over++
			}
			fmt.Fprintf(log, "%-18s %-15s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %6.1f%%%s\n",
				w.name, d.name, med, q1, q3, spread*100, setGap*100, maxGap*100, d.bound*100, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics exceed their bound on unchanged code", over)
	}
	return nil
}

type childRun struct {
	detail report
	result resultLine
}

// runChild runs one workload in a fresh process and parses its two stdout
// lines. Run waits for the child, so no process outlives the call.
func runChild(self, workload string, seed int64, seconds int, size string) (*childRun, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-scale", size)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var lines [][]byte
	for s := bufio.NewScanner(&out); s.Scan(); {
		lines = append(lines, append([]byte(nil), s.Bytes()...))
	}
	if len(lines) != 2 {
		return nil, fmt.Errorf("child printed %d stdout lines, want 2", len(lines))
	}
	c := &childRun{}
	if err := json.Unmarshal(lines[0], &c.detail); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(lines[1], &c.result); err != nil {
		return nil, err
	}
	return c, nil
}

func equalCounts(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
