package eval

import "testing"

func perfSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(SuiteOptions{Seed: 11, Positions: 6})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMeasureFixes(t *testing.T) {
	s := perfSuite(t)
	r, err := s.MeasureFixes(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.NsPerFix <= 0 || r.FixesPerSec <= 0 {
		t.Fatalf("degenerate measurement: %+v", r)
	}
	if r.AllocsPerFix > 64 {
		t.Fatalf("fix path allocates too much: %.1f allocs/fix", r.AllocsPerFix)
	}
}

// TestSuiteKernelParity is the eval-level golden check: the production
// float32 likelihood must stay within the core golden tests' per-cell
// surface bound (0.05 on a combined surface of four unit-normalized
// anchor maps) of the reference kernel on the suite's own dataset.
func TestSuiteKernelParity(t *testing.T) {
	s := perfSuite(t)
	worst, err := s.MaxKernelDivergence(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst per-cell divergence %.4f", worst)
	if worst > 0.05 {
		t.Fatalf("production kernel diverges from reference by %g (limit 0.05)", worst)
	}
}
