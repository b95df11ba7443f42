package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestKSweepStdoutIsDeterministic runs one experiment twice in-process:
// stdout must repeat byte for byte and carry no run-dependent line.
func TestKSweepStdoutIsDeterministic(t *testing.T) {
	var outs [2]string
	for i := range outs {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-only", "ksweep", "-scale", "0.2"}, &stdout, &stderr); code != 0 {
			t.Fatalf("run %d exited %d:\n%s", i, code, stderr.String())
		}
		outs[i] = stdout.String()
		if !strings.Contains(stderr.String(), "total runtime") {
			t.Errorf("run %d: stderr lacks the runtime line", i)
		}
	}
	if outs[0] != outs[1] {
		t.Fatalf("stdout differs between runs:\n--- first\n%s\n--- second\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "ABLATION A1") || !strings.Contains(outs[0], "ABLATION A2") {
		t.Errorf("ksweep stdout lacks its tables:\n%s", outs[0])
	}
	for _, banned := range []string{"runtime", "generating", "extracted"} {
		if strings.Contains(outs[0], banned) {
			t.Errorf("stdout contains %q:\n%s", banned, outs[0])
		}
	}
}

func TestUnknownExperimentIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "nosuch"},
		{"-only", "ksweep,nosuch"},
		{"-profile", "nosuch"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote stdout %q", args, stdout.String())
		}
		for _, name := range []string{"table1", "table2", "ksweep", "ablate", "rt"} {
			if !strings.Contains(stderr.String(), name) {
				t.Errorf("%v: usage does not name %s:\n%s", args, name, stderr.String())
			}
		}
	}
}
