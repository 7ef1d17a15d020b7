package core

import (
	"math"
	"math/cmplx"
	"testing"

	"bloc/internal/csi"
	"bloc/internal/dsp"
	"bloc/internal/geom"
	"bloc/internal/rfsim"
	"bloc/internal/testbed"
)

func paperEngine(t *testing.T, d *testbed.Deployment) *Engine {
	t.Helper()
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	room := testbed.PaperRoom()
	anchors := []geom.Array{
		geom.NewArray(geom.Pt(0, -2.95), geom.Vec(1, 0), 4, 0.06),
		geom.NewArray(geom.Pt(0, 2.95), geom.Vec(-1, 0), 4, 0.06),
	}
	if _, err := NewEngine(anchors[:1], DefaultConfig(room)); err == nil {
		t.Error("single anchor should be rejected")
	}
	bad := DefaultConfig(room)
	bad.CellM = 0
	if _, err := NewEngine(anchors, bad); err == nil {
		t.Error("zero cell size should be rejected")
	}
	bad2 := DefaultConfig(geom.NewRect(geom.Pt(0, 0), geom.Pt(0, 5)))
	if _, err := NewEngine(anchors, bad2); err == nil {
		t.Error("degenerate room should be rejected")
	}
	e, err := NewEngine(anchors, DefaultConfig(room))
	if err != nil {
		t.Fatal(err)
	}
	nx, ny := e.GridSize()
	if nx < 90 || ny < 110 {
		t.Errorf("grid %dx%d unexpectedly small for a 5x6 room at 5 cm", nx, ny)
	}
	// Cell centers tile the room.
	if p := e.CellCenter(0, 0); p != room.Min {
		t.Errorf("first cell = %v, want %v", p, room.Min)
	}
}

func TestLocateFreeSpaceExact(t *testing.T) {
	// Free space, no noise, offsets on: BLoc must land within a few cells
	// of the truth. This is the fundamental closed-loop test of
	// Correct + Eq. 17 + peak selection.
	env := testbed.CleanEnvironment(1)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 4, Antennas: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	for _, tag := range []geom.Point{
		geom.Pt(0.7, -0.4),
		geom.Pt(-1.5, 1.8),
		geom.Pt(0, 0),
		geom.Pt(1.9, 2.2),
	} {
		res, err := e.LocateOpts(d.Sounding(tag), LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if errM := res.Estimate.Dist(tag); errM > 0.15 {
			t.Errorf("tag %v: error %.3f m, want < 0.15", tag, errM)
		}
	}
}

func TestLocateRobustToLOOffsets(t *testing.T) {
	// The same tag, measured twice (different random offsets per band):
	// both estimates must agree with the truth — offsets are fully
	// cancelled, not just averaged out.
	env := testbed.CleanEnvironment(5)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 4, Antennas: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(-0.8, 0.9)
	r1, err := e.LocateOpts(d.Sounding(tag), LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.LocateOpts(d.Sounding(tag), LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Estimate.Dist(tag) > 0.15 || r2.Estimate.Dist(tag) > 0.15 {
		t.Errorf("estimates %v / %v far from tag %v", r1.Estimate, r2.Estimate, tag)
	}
}

func TestAlphaPhaseLinearAcrossBands(t *testing.T) {
	// Fig. 8b: in a clean LOS setup the corrected channel phase varies
	// linearly with frequency; the raw measured phase does not. Quantify
	// with the R² of a linear fit on unwrapped phases.
	env := testbed.CleanEnvironment(2)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 2, Antennas: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tag := geom.Pt(0.5, 0.5)
	snap := d.Sounding(tag)
	a, err := Correct(snap)
	if err != nil {
		t.Fatal(err)
	}
	K := a.NumBands()
	x := make([]float64, K)
	corrected := make([]float64, K)
	raw := make([]float64, K)
	for k := 0; k < K; k++ {
		x[k] = snap.Freqs[k]
		corrected[k] = cmplx.Phase(a.Values[k][1][0])
		raw[k] = cmplx.Phase(snap.Tag[k][1][0])
	}
	_, _, r2c := dsp.LinearFit(x, dsp.Unwrap(corrected))
	_, _, r2r := dsp.LinearFit(x, dsp.Unwrap(raw))
	if r2c < 0.999 {
		t.Errorf("corrected phase R² = %v, want ≈ 1 (linear)", r2c)
	}
	if r2r > 0.9 {
		t.Errorf("raw phase R² = %v — offsets should destroy linearity", r2r)
	}
}

func TestAngleLikelihoodPeaksAtTrueDirection(t *testing.T) {
	env := testbed.CleanEnvironment(3)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 2, Antennas: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(1.2, 0.3)
	a, err := Correct(d.Sounding(tag))
	if err != nil {
		t.Fatal(err)
	}
	spec := e.angleSpectrum(a.Freqs, a.Values, nil, 0)
	best := dsp.ArgMax(spec)
	gotTheta := e.thetas[best]
	wantTheta := d.Anchors[0].AngleTo(tag)
	if math.Abs(gotTheta-wantTheta) > geom.Rad(3) {
		t.Errorf("angle peak at %.1f°, want %.1f°",
			geom.Deg(gotTheta), geom.Deg(wantTheta))
	}
}

func TestDistanceLikelihoodPeaksAtTrueRelativeDistance(t *testing.T) {
	env := testbed.CleanEnvironment(4)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 3, Antennas: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(-0.9, 1.1)
	a, err := Correct(d.Sounding(tag))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		spec := e.distanceSpectrum(a, i)
		best := dsp.ArgMax(spec)
		got := e.deltas[best]
		want := tag.Dist(d.Anchors[i].Antenna(0)) - tag.Dist(d.Anchors[0].Antenna(0))
		// With 80 MHz of bandwidth the distance resolution is c/BW ≈
		// 3.75 m, but the peak center should still be close.
		if math.Abs(got-want) > 0.5 {
			t.Errorf("anchor %d: Δ peak %.2f m, want %.2f m", i, got, want)
		}
	}
}

func TestLikelihoodXYMaxNearTag(t *testing.T) {
	// The combined likelihood (Fig. 6c) must put its global maximum near
	// the true location in a clean environment.
	env := testbed.CleanEnvironment(6)
	d, err := testbed.New(env, testbed.Config{Anchors: 4, Antennas: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(0.4, -1.3)
	a, err := Correct(d.Sounding(tag))
	if err != nil {
		t.Fatal(err)
	}
	grid, per, err := e.Likelihood(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("per-anchor maps = %d", len(per))
	}
	_, ix, iy := grid.Max()
	if e.CellCenter(ix, iy).Dist(tag) > 0.3 {
		t.Errorf("likelihood max at %v, tag at %v", e.CellCenter(ix, iy), tag)
	}
}

func TestHyperbolaShape(t *testing.T) {
	// Fig. 6b: the distance-only XY likelihood is constant along the
	// hyperbola Δ(p) = const. Verify two points with equal Δ score
	// (nearly) equally and a point with different Δ scores differently.
	env := testbed.CleanEnvironment(8)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 2, Antennas: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(0.5, 0)
	a, err := Correct(d.Sounding(tag))
	if err != nil {
		t.Fatal(err)
	}
	xy := e.DistanceLikelihoodXY(a, 1)
	// All cells whose Δ equals the tag's Δ (within a cell) should carry
	// high likelihood relative to the map maximum.
	ant0 := d.Anchors[1].Antenna(0)
	master0 := d.Anchors[0].Antenna(0)
	wantDelta := tag.Dist(ant0) - tag.Dist(master0)
	gmax, _, _ := xy.Max()
	nx, ny := e.GridSize()
	onCurve := 0
	lowOnCurve := 0
	for iy := 0; iy < ny; iy += 2 {
		for ix := 0; ix < nx; ix += 2 {
			p := e.CellCenter(ix, iy)
			delta := p.Dist(ant0) - p.Dist(master0)
			if math.Abs(delta-wantDelta) < 0.05 {
				onCurve++
				if xy.At(ix, iy) < 0.5*gmax {
					lowOnCurve++
				}
			}
		}
	}
	if onCurve < 10 {
		t.Fatalf("only %d sampled cells on the hyperbola", onCurve)
	}
	if lowOnCurve > onCurve/5 {
		t.Errorf("%d/%d hyperbola cells have low likelihood — not a ridge", lowOnCurve, onCurve)
	}
}

func TestLocateErrors(t *testing.T) {
	d, err := testbed.Paper(1)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	if _, err := e.LocateOpts(&csi.Snapshot{}, LocateOptions{}); err == nil {
		t.Error("empty snapshot should fail")
	}
	// Wrong anchor count.
	d2, err := testbed.New(testbed.PaperEnvironment(1), testbed.Config{Anchors: 3, Antennas: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.LocateOpts(d2.Sounding(geom.Pt(0, 0)), LocateOptions{}); err == nil {
		t.Error("anchor count mismatch should fail")
	}
}

func TestLocateWithNoise(t *testing.T) {
	// 25 dB channel-estimate SNR in the clean room: error stays small.
	env := testbed.CleanEnvironment(9)
	d, err := testbed.New(env, testbed.Config{Anchors: 4, Antennas: 4, SNRdB: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(-1.1, -0.7)
	res, err := e.LocateOpts(d.Sounding(tag), LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Dist(tag) > 0.35 {
		t.Errorf("noisy clean-room error %.3f m too large", res.Estimate.Dist(tag))
	}
}

func TestShortestPathRemainsShortestUnderCorrection(t *testing.T) {
	// §5.4 first observation: relative distances preserve path ordering —
	// the reference distance is subtracted from all paths, so the direct
	// path's relative distance stays the profile's dominant, earliest
	// component. Build a geometry where direct and reflected paths differ
	// by more than the 80 MHz resolution (c/BW ≈ 3.75 m) and verify the
	// profile is maximal near the direct Δ and clearly weaker at the
	// reflection's ghost Δ.
	env := rfsim.NewEnvironment(testbed.PaperRoom(), 3)
	env.WallReflectivity = 0
	scat := geom.Pt(2.3, -2.7)
	env.AddScatterer(rfsim.Scatterer{Center: scat, Radius: 0.02, Gain: 2.0, Facets: 1})
	d, err := testbed.New(env, testbed.Config{Anchors: 3, Antennas: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(-2, -2.5)
	a, err := Correct(d.Sounding(tag))
	if err != nil {
		t.Fatal(err)
	}
	spec := e.distanceSpectrum(a, 1)
	ant1 := d.Anchors[1].Antenna(0)
	master0 := d.Anchors[0].Antenna(0)
	directDelta := tag.Dist(ant1) - tag.Dist(master0)
	// Ghost created by the reflected master leg: the tag→master reference
	// travels via the scatterer, shifting the apparent Δ down.
	ghostDelta := tag.Dist(ant1) - (tag.Dist(scat) + scat.Dist(master0))

	at := func(delta float64) float64 {
		best := 0
		for i := range e.deltas {
			if math.Abs(e.deltas[i]-delta) < math.Abs(e.deltas[best]-delta) {
				best = i
			}
		}
		return spec[best]
	}
	peakDelta := e.deltas[dsp.ArgMax(spec)]
	if math.Abs(peakDelta-directDelta) > 1.0 {
		t.Errorf("profile max at Δ=%.2f, direct Δ=%.2f", peakDelta, directDelta)
	}
	if at(ghostDelta) >= at(directDelta) {
		t.Errorf("ghost Δ=%.2f (%.3f) not weaker than direct Δ=%.2f (%.3f)",
			ghostDelta, at(ghostDelta), directDelta, at(directDelta))
	}
}

func BenchmarkLocatePaperRoom(b *testing.B) {
	d, err := testbed.Paper(1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		b.Fatal(err)
	}
	snap := d.Sounding(geom.Pt(0.6, -0.9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.LocateOpts(snap, LocateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	d, err := testbed.Paper(95)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	if e.Config().ScoreA != 0.1 {
		t.Errorf("Config().ScoreA = %v", e.Config().ScoreA)
	}
	if len(e.Anchors()) != 4 {
		t.Errorf("Anchors() = %d", len(e.Anchors()))
	}
}

func TestLocateFromWaveformAcquisition(t *testing.T) {
	// Full-stack fidelity: localizing from waveform-level acquisitions
	// (GFSK packets through the channel, CSI extracted by DSP, packet
	// timing recovered by correlation) must agree with the channel-domain
	// path to within the grid resolution.
	env := testbed.PaperEnvironment(97)
	d, err := testbed.New(env, testbed.Config{Anchors: 4, Antennas: 4, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	d.TimingJitter = 100
	d.SampleNoiseSigma = 1e-5
	e := paperEngine(t, d)
	for _, tag := range []geom.Point{geom.Pt(0.7, -0.8), geom.Pt(-1.1, 1.4)} {
		cd, err := e.LocateOpts(d.Fork(1).Sounding(tag), LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wfSnap, err := d.Fork(1).SoundingWaveform(tag)
		if err != nil {
			t.Fatal(err)
		}
		wf, err := e.LocateOpts(wfSnap, LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := cd.Estimate.Dist(wf.Estimate); d > 0.15 {
			t.Errorf("tag %v: waveform estimate %.2f m from channel-domain estimate", tag, d)
		}
	}
}
