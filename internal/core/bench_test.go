package core

import (
	"testing"

	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// Micro-benchmarks for the likelihood kernels, production vs reference.
// BenchmarkLocateSingleFix (package bloc) measures the end-to-end fix;
// these isolate the polar fill and the full-grid refinement it runs.

func benchFixture(b *testing.B) (*Engine, *Alpha) {
	b.Helper()
	d, err := testbed.Paper(7)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		b.Fatal(err)
	}
	a, err := Correct(d.Sounding(geom.Pt(0.8, -1.2)))
	if err != nil {
		b.Fatal(err)
	}
	return e, a
}

// BenchmarkPolarFill32 fills one anchor's whole polar plane with the
// production kernel at the default refinement strides.
func BenchmarkPolarFill32(b *testing.B) {
	e, a := benchFixture(b)
	got, rowLo, rowHi, acc, avp := fullPlaneScratch(e, a)
	ps := e.planesFor(a.Freqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bfCoeffs(ps, a, 1, avp)
		e.polarFill32(ps, a, 1, got, rowLo, rowHi, acc, avp)
	}
}

func BenchmarkPolarLikelihoodReference(b *testing.B) {
	e, a := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.referencePolarLikelihood(a, 1)
	}
}

// BenchmarkLikelihood is the full-grid combined surface: the refinement
// routine with every tile selected.
func BenchmarkLikelihood(b *testing.B) {
	e, a := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.fullLikelihood(a, nil)
	}
}

// BenchmarkGatedFix measures the steady-state tracked fix: a settled
// prior, warm pools and tables. BenchmarkFullGridFix is the same
// snapshot through the full-grid path — the pair is the headline
// speedup of the prior-gated search.
func BenchmarkGatedFix(b *testing.B) {
	d, err := testbed.Paper(1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		b.Fatal(err)
	}
	snap := d.Sounding(geom.Pt(1.2, 0.8))
	full, err := e.Locate(snap)
	if err != nil {
		b.Fatal(err)
	}
	prior := tightPrior(full.Estimate)
	res, err := e.LocateOpts(snap, LocateOptions{Prior: prior})
	if err != nil {
		b.Fatal(err)
	}
	if !res.Gated {
		b.Fatalf("warm-up fix fell back: %q", res.Fallback)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.LocateOpts(snap, LocateOptions{Prior: prior})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Gated {
			b.Fatalf("fix fell back: %q", r.Fallback)
		}
	}
}

func BenchmarkFullGridFix(b *testing.B) {
	d, err := testbed.Paper(1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		b.Fatal(err)
	}
	snap := d.Sounding(geom.Pt(1.2, 0.8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Locate(snap); err != nil {
			b.Fatal(err)
		}
	}
}
