package core

import (
	"math"
	"testing"

	"bloc/internal/csi"
	"bloc/internal/dsp"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

func TestPolarToXYBounds(t *testing.T) {
	// Cells behind an array or outside the Δ range must stay zero in the
	// anchor's projected map, and everything in front must be finite and
	// non-negative.
	env := testbed.CleanEnvironment(31)
	d, err := testbed.New(env, testbed.Config{Anchors: 2, Antennas: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	a, err := Correct(d.Sounding(geom.Pt(0.5, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	_, per, err := e.Likelihood(a)
	if err != nil {
		t.Fatal(err)
	}
	xy := per[1]
	nx, ny := e.GridSize()
	arr := d.Anchors[1]
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			v := xy.At(ix, iy)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("cell (%d,%d) = %v", ix, iy, v)
			}
			p := e.CellCenter(ix, iy)
			theta := arr.AngleTo(p)
			if math.Abs(theta) > math.Pi/2+0.02 && v != 0 {
				t.Fatalf("cell %v behind array has likelihood %v", p, v)
			}
		}
	}
}

func TestPolarLikelihoodNonNegativeAndPeaked(t *testing.T) {
	env := testbed.CleanEnvironment(32)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 2, Antennas: 4, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(1.0, -0.5)
	a, err := Correct(d.Sounding(tag))
	if err != nil {
		t.Fatal(err)
	}
	// The production kernel at the default strides, over the whole plane.
	polar, rowLo, rowHi, rs, avp := fullPlaneScratch(e, a)
	ps := e.planesFor(a.Freqs)
	bfCoeffs(ps, a, 1, avp)
	e.polarFill32(ps, a, 1, polar, rowLo, rowHi, rs, avp)
	D := len(e.deltas)
	best := 0
	for i, v := range polar {
		if v < 0 || math.IsNaN(float64(v)) {
			t.Fatalf("polar cell %d = %v", i, v)
		}
		if v > polar[best] {
			best = i
		}
	}
	if polar[best] <= 0 {
		t.Fatal("empty polar likelihood")
	}
	// The max must sit near the true (θ, Δ).
	gotTheta := e.thetas[best/D]
	gotDelta := e.deltas[best%D]
	wantTheta := d.Anchors[1].AngleTo(tag)
	wantDelta := tag.Dist(d.Anchors[1].Antenna(0)) - tag.Dist(d.Anchors[0].Antenna(0))
	if math.Abs(gotTheta-wantTheta) > geom.Rad(4) {
		t.Errorf("polar θ max at %.1f°, want %.1f°", geom.Deg(gotTheta), geom.Deg(wantTheta))
	}
	if math.Abs(gotDelta-wantDelta) > 0.6 {
		t.Errorf("polar Δ max at %.2f, want %.2f", gotDelta, wantDelta)
	}
}

func TestAngleLikelihoodXYFanShape(t *testing.T) {
	// The angle-only XY map (Fig. 6a) must be constant along rays from
	// the anchor: two points at the same θ get (nearly) the same value.
	env := testbed.CleanEnvironment(33)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 2, Antennas: 4, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	a, err := Correct(d.Sounding(geom.Pt(0.8, 0.2)))
	if err != nil {
		t.Fatal(err)
	}
	xy := e.AngleLikelihoodXY(a, 0)
	arr := d.Anchors[0] // south wall, broadside +Y
	center := arr.Center()
	dir := geom.Vec(0.3, 1).Unit()
	p1 := center.Add(dir.Scale(1.5))
	p2 := center.Add(dir.Scale(3.0))
	fx1, fy1 := e.cellOf(p1)
	fx2, fy2 := e.cellOf(p2)
	v1 := xy.Bilinear(fx1, fy1)
	v2 := xy.Bilinear(fx2, fy2)
	if v1 <= 0 || v2 <= 0 {
		t.Fatal("fan values empty")
	}
	if math.Abs(v1-v2) > 0.05*math.Max(v1, v2) {
		t.Errorf("fan not radially constant: %v vs %v", v1, v2)
	}
}

func TestLikelihoodPerAnchorNormalization(t *testing.T) {
	d, err := testbed.Paper(34)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Correct(d.Sounding(geom.Pt(0.2, -0.4)))
	if err != nil {
		t.Fatal(err)
	}
	combined, per, err := e.Likelihood(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range per {
		gmax, _, _ := g.Max()
		if math.Abs(gmax-1) > 1e-9 {
			t.Errorf("anchor %d map max %v, want 1 (normalized)", i, gmax)
		}
	}
	cmax, _, _ := combined.Max()
	if cmax > float64(len(per))+1e-9 || cmax <= 0 {
		t.Errorf("combined max %v outside (0, %d]", cmax, len(per))
	}
}

func TestGridPointRoundTrip(t *testing.T) {
	d, err := testbed.Paper(35)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	p := e.GridPoint(dsp.Peak{IX: 10, IY: 20})
	if p != e.CellCenter(10, 20) {
		t.Error("GridPoint disagrees with CellCenter")
	}
	// cellOf inverts CellCenter.
	fx, fy := e.cellOf(p)
	if math.Abs(fx-10) > 1e-9 || math.Abs(fy-20) > 1e-9 {
		t.Errorf("cellOf = (%v, %v), want (10, 20)", fx, fy)
	}
}

func TestEngineRejectsEmptyAlpha(t *testing.T) {
	d, err := testbed.Paper(36)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	if _, _, err := e.Likelihood(&Alpha{}); err == nil {
		t.Error("empty alpha should be rejected")
	}
	// Alphas with fewer and with more anchors than the engine.
	for _, anchors := range []int{2, 5} {
		snap := csi.NewSnapshot(d.Bands[:2], anchors, 4)
		for b := range snap.Bands {
			for i := range snap.Tag[b] {
				for j := range snap.Tag[b][i] {
					snap.Tag[b][i][j] = 1
				}
				snap.Master[b][i] = 1
			}
		}
		a, err := Correct(snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Likelihood(a); err == nil {
			t.Errorf("%d-anchor alpha on a 4-anchor engine should be rejected", anchors)
		}
	}
}
