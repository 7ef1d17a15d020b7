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
	got, rowLo, rowHi, rs, avp := fullPlaneScratch(e, a)
	ps := e.planesFor(a.Freqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bfCoeffs(ps, a, 1, avp)
		e.polarFill32(ps, a, 1, got, rowLo, rowHi, rs, avp)
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
// routine with every tile selected, in one workspace.
func BenchmarkLikelihood(b *testing.B) {
	e, a := benchFixture(b)
	r := e.getRun()
	defer e.putRun(r)
	ps, gt := e.planesFor(a.Freqs), e.gatedFor(a.Ref)
	r.selectAll(gt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.refine(r, ps, gt, a, nil, nil)
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
	full, err := e.LocateOpts(snap, LocateOptions{})
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
	// Warm-up: the first fix builds the steering planes and projection
	// tables, which would otherwise dominate the bytes per op.
	if _, err := e.LocateOpts(snap, LocateOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.LocateOpts(snap, LocateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFixAllocs pins the steady-state fix path's allocations: once the
// engine and its workspace pool are warm, a full-grid fix and a gated
// fix that stays gated allocate only what they return — the Result and
// its candidates.
func TestFixAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	d, err := testbed.Paper(1)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	snap := d.Sounding(geom.Pt(1.2, 0.8))
	full, err := e.LocateOpts(snap, LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []LocateOptions{{}, {Prior: tightPrior(full.Estimate)}} {
		var res *Result
		allocs := testing.AllocsPerRun(100, func() {
			if res, err = e.LocateOpts(snap, opts); err != nil {
				t.Fatal(err)
			}
		})
		if gated := opts.Prior != nil; res.Gated != gated {
			t.Fatalf("prior %v: fix gated=%v fallback=%q", gated, res.Gated, res.Fallback)
		}
		if allocs > 2 {
			t.Errorf("prior %v: %v allocations per fix, want at most 2 (Result, Candidates)", opts.Prior != nil, allocs)
		}
	}
}
