package core

import (
	"math"
	"testing"

	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// tightPrior is a settled-tracker stand-in: a small isotropic ellipse
// centered on the given point.
func tightPrior(p geom.Point) *Prior {
	return &Prior{Center: p, SemiMajor: 0.5, SemiMinor: 0.5, Theta: 0}
}

// gatedScenarioPoints spans the room: interior points at various ranges
// from the anchors, including cells near the clutter.
var gatedScenarioPoints = []geom.Point{
	geom.Pt(0, 0), geom.Pt(1.2, 0.8), geom.Pt(-1.5, -1.0),
	geom.Pt(0.4, 2.0), geom.Pt(-0.8, 1.4), geom.Pt(1.8, -2.0),
	geom.Pt(-2.0, 2.2), geom.Pt(2.0, 1.5),
}

// TestGatedParityTracked pins the gated path to the full-grid fix
// across seeded scenarios: with a truthful prior the gated estimate must
// match the full-grid estimate to within grid-cell noise.
func TestGatedParityTracked(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		d, err := testbed.Paper(seed)
		if err != nil {
			t.Fatal(err)
		}
		e := paperEngine(t, d)
		worst := 0.0
		gatedCount := 0
		for _, pt := range gatedScenarioPoints {
			snap := d.Sounding(pt)
			full, err := e.LocateOpts(snap, LocateOptions{})
			if err != nil {
				t.Fatalf("seed %d %v: full: %v", seed, pt, err)
			}
			// The prior a settled tracker would hold: centered on the
			// (converged) estimate, not the unknowable truth.
			res, err := e.LocateOpts(snap, LocateOptions{Prior: tightPrior(full.Estimate)})
			if err != nil {
				t.Fatalf("seed %d %v: gated: %v", seed, pt, err)
			}
			dist := res.Estimate.Dist(full.Estimate)
			if dist > worst {
				worst = dist
			}
			if res.Gated {
				gatedCount++
				if res.TilesRefined <= 0 || res.TilesRefined > res.TilesTotal {
					t.Errorf("seed %d %v: bad tile counts %d/%d", seed, pt, res.TilesRefined, res.TilesTotal)
				}
				if res.TilesRefined*2 > res.TilesTotal {
					t.Errorf("seed %d %v: gated fix refined %d/%d tiles — not worth gating",
						seed, pt, res.TilesRefined, res.TilesTotal)
				}
			} else if res.Fallback == "" {
				t.Errorf("seed %d %v: non-gated result without a fallback reason", seed, pt)
			}
			// Gated successes must agree to within a couple of cells
			// (float32 rounding can move the argmax across a cell edge);
			// fallbacks run the identical full path and must agree exactly.
			tol := 2.5 * e.Config().CellM
			if !res.Gated {
				tol = 0
			}
			if dist > tol {
				t.Errorf("seed %d %v: gated %v vs full %v (%.3f m apart, gated=%v fb=%q)",
					seed, pt, res.Estimate, full.Estimate, dist, res.Gated, res.Fallback)
			}
		}
		if gatedCount < len(gatedScenarioPoints)*3/4 {
			t.Errorf("seed %d: only %d/%d fixes were gated with a truthful prior",
				seed, gatedCount, len(gatedScenarioPoints))
		}
		t.Logf("seed %d: %d/%d gated, worst disagreement %.3f m", seed, gatedCount, len(gatedScenarioPoints), worst)
	}
}

// TestGatedNilPriorIsFullPath pins track loss: without a prior,
// LocateOpts runs the full-grid path — no gate attempt, and the estimate
// is the best-scored peak of Engine.Likelihood's surface.
func TestGatedNilPriorIsFullPath(t *testing.T) {
	d, err := testbed.Paper(3)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	snap := d.Sounding(geom.Pt(0.7, -1.1))
	res, err := e.LocateOpts(snap, LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gated || res.Fallback != "" {
		t.Fatalf("nil prior produced gated=%v fallback=%q", res.Gated, res.Fallback)
	}
	a, err := Correct(snap)
	if err != nil {
		t.Fatal(err)
	}
	surface, _, err := e.Likelihood(a)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := bestByScore(e.candidatesIn(new(fixRun), surface, 0, 0, surface.W, surface.H))
	if !ok || res.Estimate != best.Loc {
		t.Fatalf("nil-prior estimate %v != best peak %v of the full-grid surface", res.Estimate, best.Loc)
	}
}

// TestGatedTeleportFallsBack pins the adversarial case: a confident but
// wrong prior (the tag teleported across the room) must trigger the
// disagree fallback, and the reported fix must be the full-grid one.
func TestGatedTeleportFallsBack(t *testing.T) {
	d, err := testbed.Paper(5)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	pt := geom.Pt(1.5, 1.8)
	snap := d.Sounding(pt)
	full, err := e.LocateOpts(snap, LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Prior stuck at the opposite corner, far outside DisagreeMarginM.
	res, err := e.LocateOpts(snap, LocateOptions{Prior: tightPrior(geom.Pt(-2.0, -2.5))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gated {
		t.Fatal("teleporting tag was served a gated fix")
	}
	if res.Fallback != FallbackDisagree {
		t.Fatalf("fallback = %q, want %q", res.Fallback, FallbackDisagree)
	}
	if res.Estimate != full.Estimate {
		t.Fatalf("fallback estimate %v != full-grid %v", res.Estimate, full.Estimate)
	}
}

// TestGatedLowConfFallsBack wires the flat-surface trigger: with an
// absurdly small MaxTileFrac every selection is "too many tiles".
func TestGatedLowConfFallsBack(t *testing.T) {
	d, err := testbed.Paper(9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(d.Env.Room)
	cfg.Gate.MaxTileFrac = 1e-9
	e, err := NewEngine(d.Anchors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := geom.Pt(-0.5, 0.9)
	snap := d.Sounding(pt)
	full, err := e.LocateOpts(snap, LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.LocateOpts(snap, LocateOptions{Prior: tightPrior(full.Estimate)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gated || res.Fallback != FallbackLowConf {
		t.Fatalf("gated=%v fallback=%q, want lowconf fallback", res.Gated, res.Fallback)
	}
	if res.Estimate != full.Estimate {
		t.Fatalf("fallback estimate %v != full-grid %v", res.Estimate, full.Estimate)
	}
}

// TestGatedStatsPartition checks the counter algebra: every Locate-family
// fix is either gated or full, and fallbacks are attributed to exactly
// one trigger.
func TestGatedStatsPartition(t *testing.T) {
	d, err := testbed.Paper(11)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	var wantGated, wantFull, wantFallbacks uint64
	var lastSnap = d.Sounding(gatedScenarioPoints[0])
	for _, pt := range gatedScenarioPoints {
		snap := d.Sounding(pt)
		lastSnap = snap
		full, err := e.LocateOpts(snap, LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantFull++
		res, err := e.LocateOpts(snap, LocateOptions{Prior: tightPrior(full.Estimate)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Gated {
			wantGated++
		} else {
			wantFull++
			wantFallbacks++
			if res.Fallback == "" {
				t.Error("non-gated LocateOpts result without a fallback reason")
			}
		}
	}
	if wantGated == 0 {
		t.Fatal("no scenario point produced a gated fix")
	}
	// Teleport prior: guaranteed fallback → one more full fix.
	res, err := e.LocateOpts(lastSnap, LocateOptions{Prior: tightPrior(geom.Pt(-2.2, -2.8))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gated {
		t.Fatal("teleport prior was served a gated fix")
	}
	wantFull++
	wantFallbacks++
	s := e.Stats()
	if s.Fixes != s.GatedFixes+s.FullFixes {
		t.Errorf("Fixes %d != Gated %d + Full %d", s.Fixes, s.GatedFixes, s.FullFixes)
	}
	if s.GatedFixes != wantGated {
		t.Errorf("GatedFixes = %d, want %d", s.GatedFixes, wantGated)
	}
	if s.FullFixes != wantFull {
		t.Errorf("FullFixes = %d, want %d", s.FullFixes, wantFull)
	}
	if got := s.FallbackDisagree + s.FallbackLowConf + s.FallbackNoPeaks; got != wantFallbacks {
		t.Errorf("fallback counters sum to %d, want %d", got, wantFallbacks)
	}
	if s.FallbackDisagree == 0 {
		t.Error("teleport prior did not count a disagree fallback")
	}
	if s.TilesRefined == 0 || s.TilesTotal == 0 || s.TilesRefined > s.TilesTotal {
		t.Errorf("tile counters %d/%d", s.TilesRefined, s.TilesTotal)
	}
}

// fullPlaneScratch returns a whole-plane polarFill32 workspace: the
// T·D output plane, every row spanning all of Δ, and the row kernel and
// coefficient scratch.
func fullPlaneScratch(e *Engine, a *Alpha) (polar []float32, rowLo, rowHi []int32, rs *rowScratch, avp []complex128) {
	T, D := len(e.thetas), len(e.deltas)
	rowLo, rowHi = make([]int32, T), make([]int32, T)
	for t := range rowHi {
		rowHi[t] = int32(D)
	}
	return make([]float32, T*D), rowLo, rowHi, &rowScratch{},
		make([]complex128, a.NumBands()*a.NumAntennas())
}

// TestPolarFill32Golden compares the float32 kernel against the float64
// reference kernel over the full polar plane: relative error (against
// the plane maximum) must stay within float32 accumulation noise.
// RefineDeltaStep is pinned to 1 so every column is evaluated exactly;
// the default stride's interpolation error is bounded separately by
// TestPolarFill32InterpError.
func TestPolarFill32Golden(t *testing.T) {
	d, err := testbed.Paper(21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(d.Env.Room)
	cfg.Gate.RefineDeltaStep = 1
	cfg.Gate.RefineThetaStep = 1
	e, err := NewEngine(d.Anchors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Sounding(geom.Pt(0.9, -0.4))
	a, err := CorrectRef(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := e.planesFor(a.Freqs)
	got, rowLo, rowHi, rs, avp := fullPlaneScratch(e, a)
	for anchor := 0; anchor < a.NumAnchors(); anchor++ {
		golden := e.referencePolarLikelihood(a, anchor)
		bfCoeffs(ps, a, anchor, avp)
		e.polarFill32(ps, a, anchor, got, rowLo, rowHi, rs, avp)

		var max float64
		for _, v := range golden.Data {
			if v > max {
				max = v
			}
		}
		if !(max > 0) {
			t.Fatalf("anchor %d: degenerate golden plane", anchor)
		}
		worst := 0.0
		for i, v := range golden.Data {
			if rel := math.Abs(float64(got[i])-v) / max; rel > worst {
				worst = rel
			}
		}
		if worst > 1e-4 {
			t.Errorf("anchor %d: float32 plane diverges, worst rel err %.2e", anchor, worst)
		}
	}
}

// TestPolarFill32InterpError bounds the Δ-interpolation error of the
// default RefineDeltaStep: at cells above 30% of the plane maximum —
// the ones that shape candidate peaks — the interpolated plane must
// stay within 2% of the exact float64 reference kernel. The magnitude
// profile is band-limited along Δ by the sounded channel spread, which
// is what makes the strided sweep admissible at all; this test is the
// tripwire if a future grid or band-plan change breaks that assumption.
func TestPolarFill32InterpError(t *testing.T) {
	d, err := testbed.Paper(23)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	if e.cfg.Gate.RefineDeltaStep < 2 && e.cfg.Gate.RefineThetaStep < 2 {
		t.Skip("interpolation disabled by default")
	}
	snap := d.Sounding(geom.Pt(-0.8, 1.1))
	a, err := CorrectRef(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := e.planesFor(a.Freqs)
	got, rowLo, rowHi, rs, avp := fullPlaneScratch(e, a)
	for anchor := 0; anchor < a.NumAnchors(); anchor++ {
		golden := e.referencePolarLikelihood(a, anchor)
		bfCoeffs(ps, a, anchor, avp)
		e.polarFill32(ps, a, anchor, got, rowLo, rowHi, rs, avp)
		var max float64
		for _, v := range golden.Data {
			if v > max {
				max = v
			}
		}
		if !(max > 0) {
			t.Fatalf("anchor %d: degenerate golden plane", anchor)
		}
		worst := 0.0
		for i, v := range golden.Data {
			if v < 0.3*max {
				continue
			}
			if rel := math.Abs(float64(got[i])-v) / v; rel > worst {
				worst = rel
			}
		}
		if worst > 0.02 {
			t.Errorf("anchor %d: interpolated plane off by %.4f at peak cells", anchor, worst)
		}
	}
}

// TestCoarsePolarFill32Golden checks the decimated coarse kernel: each
// coarse sample is the same (θ, Δ) evaluation as the float64 reference
// plane at the decimated indices.
func TestCoarsePolarFill32Golden(t *testing.T) {
	d, err := testbed.Paper(22)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	snap := d.Sounding(geom.Pt(-1.1, 1.6))
	a, err := CorrectRef(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := e.planesFor(a.Freqs)
	gt := e.gatedFor(0)
	g := e.Config().Gate
	D := len(e.deltas)
	for anchor := 0; anchor < a.NumAnchors(); anchor++ {
		golden := e.referencePolarLikelihood(a, anchor)
		var max float64
		for _, v := range golden.Data {
			if v > max {
				max = v
			}
		}
		cpolar := make([]float32, gt.cT*gt.cD)
		cp := &gt.coarse[anchor]
		avp := make([]complex128, a.NumBands()*a.NumAntennas())
		bfCoeffs(ps, a, anchor, avp)
		e.coarsePolarFill32(ps, cp, a, anchor, gt.cT, gt.cD, cpolar, &rowScratch{}, avp)
		worst := 0.0
		for ct := 0; ct < gt.cT; ct++ {
			for cd := int(cp.dLo[ct]); cd < int(cp.dHi[ct]); cd++ {
				want := golden.Data[(ct*g.CoarseThetaStep)*D+cd*g.CoarseDeltaStep]
				if rel := math.Abs(float64(cpolar[ct*gt.cD+cd])-want) / max; rel > worst {
					worst = rel
				}
			}
		}
		if worst > 1e-4 {
			t.Errorf("anchor %d: coarse float32 samples diverge, worst rel err %.2e", anchor, worst)
		}
	}
}

// TestGatePolicyHysteresis exercises the per-tag inflation state machine.
func TestGatePolicyHysteresis(t *testing.T) {
	g := NewGatePolicy()
	base := g.Prior(geom.Pt(1, 2), 0.2, 0.1, 0.3)
	if base.Center != geom.Pt(1, 2) || base.Theta != 0.3 {
		t.Fatalf("prior frame not preserved: %+v", base)
	}
	if math.Abs(base.SemiMajor-0.6) > 1e-12 || math.Abs(base.SemiMinor-0.3) > 1e-12 {
		t.Fatalf("3σ scaling wrong: %+v", base)
	}
	// The floor keeps a hyper-confident filter searchable.
	floored := g.Prior(geom.Pt(0, 0), 0.001, 0.0, 0)
	if floored.SemiMajor < 0.25 || floored.SemiMinor < 0.25 {
		t.Fatalf("radius floor not applied: %+v", floored)
	}
	// Fallbacks inflate geometrically up to the cap...
	for i := 0; i < 10; i++ {
		g.Observe(&Result{Fallback: FallbackDisagree})
	}
	inflated := g.Prior(geom.Pt(0, 0), 0.2, 0.2, 0)
	if math.Abs(inflated.SemiMajor-0.2*3*8) > 1e-9 {
		t.Fatalf("inflation cap: got %v, want %v", inflated.SemiMajor, 0.2*3*8)
	}
	// ... full fixes without a gate attempt change nothing ...
	g.Observe(&Result{})
	if p := g.Prior(geom.Pt(0, 0), 0.2, 0.2, 0); p.SemiMajor != inflated.SemiMajor {
		t.Fatalf("plain full fix moved the inflation: %v", p.SemiMajor)
	}
	// ... and gated successes decay back to 1.
	for i := 0; i < 10; i++ {
		g.Observe(&Result{Gated: true})
	}
	settled := g.Prior(geom.Pt(0, 0), 0.2, 0.2, 0)
	if math.Abs(settled.SemiMajor-0.6) > 1e-12 {
		t.Fatalf("inflation did not decay: %v", settled.SemiMajor)
	}
}
