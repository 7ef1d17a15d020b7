package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRunRejectsNonPositivePositions: -positions below 1 is a usage
// error reported on stderr, never a panic in the error statistics or the
// position sampler.
func TestRunRejectsNonPositivePositions(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-positions", n}, &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Errorf("-positions %s: err = %v, want a usage error", n, err)
		}
		if !strings.Contains(stderr.String(), "invalid value "+n+" for flag -positions") {
			t.Errorf("-positions %s: stderr does not name the flag:\n%s", n, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-positions %s: ran a simulation despite the bad flag:\n%s", n, stdout.String())
		}
	}
}

// TestRunLocalizes runs a small simulation and reports its error CDF.
func TestRunLocalizes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-positions", "3", "-method", "rssi"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "BLoc simulation: 3 positions") || !strings.Contains(out, "error CDF:") {
		t.Errorf("unexpected output:\n%s", out)
	}
}
