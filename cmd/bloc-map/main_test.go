package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: an -anchor outside the deployment, an unknown
// -view or a malformed -tag is a usage error reported on stderr, never a
// panic inside the likelihood painters.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-view", "angle", "-anchor", "9"}, "-anchor"},
		{[]string{"-view", "distance", "-anchor", "-1"}, "-anchor"},
		{[]string{"-view", "angle", "-anchor", "4"}, "-anchor"},
		{[]string{"-view", "polar"}, "-view"},
		{[]string{"-tag", "1;2"}, "-tag"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Errorf("%q: err = %v, want a usage error", tc.args, err)
		}
		if !strings.Contains(stderr.String(), "invalid value") || !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("%q: stderr does not name %s:\n%s", tc.args, tc.flag, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: rendered a map despite the bad flag", tc.args)
		}
	}
}

// TestRunRendersEveryView draws each view at the deployment's edge
// anchors; the combined view reports the estimate and its candidates.
func TestRunRendersEveryView(t *testing.T) {
	for _, args := range [][]string{
		{"-width", "24"},
		{"-view", "angle", "-anchor", "0", "-width", "24"},
		{"-view", "distance", "-anchor", "3", "-width", "24"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("%q: %v\n%s", args, err, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "A = anchor") {
			t.Errorf("%q: no map legend in output:\n%s", args, out)
		}
		if combined := len(args) == 2; combined != strings.Contains(out, "candidates (Eq. 18)") ||
			combined != strings.Contains(out, "\ntruth ") {
			t.Errorf("%q: estimate/candidates shown only for the combined view:\n%s", args, out)
		}
	}
}
