package core

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"bloc/internal/csi"
	"bloc/internal/dsp"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// The golden tests pin the production kernels to the reference kernels
// (reference.go) on full snapshots and on degraded (partial-presence)
// ones. Two regimes:
//
//   - The angle and distance spectra and the pooled correction are the
//     same float64 math restructured, and must agree within goldenTol.
//   - The joint likelihood surfaces run the float32 refinement kernel
//     with interpolated sampling (polar32.go), and must agree within
//     surfaceTol per cell and peakTol at the reference maximum.
//     TestLocateEstimateParity prices what that divergence does to the
//     error CDF.

const goldenTol = 1e-9

// surfaceTol bounds the absolute per-cell divergence of a production
// surface from the reference one. Every anchor's map is normalized to a
// unit maximum, so a per-anchor map diverges by a fraction of 1 and the
// four-anchor combined surface by up to the sum of four such fractions.
// The worst measured on these tests' snapshots is 0.033 per anchor and
// 0.035 combined (TestOptimizedKernelsMatchReferenceAllRefs, ref 3).
const surfaceTol = 0.05

// peakTol bounds the relative divergence at the reference surface's
// maximum, the cell that decides the fix. Worst measured: 0.22% (a
// per-anchor map; 0.14% on a combined surface).
const peakTol = 0.004

// closeTo compares with a tolerance scaled by magnitude: raw polar
// likelihoods reach O(K·J) while normalized maps live in [0, 1].
func closeTo(a, b float64) bool {
	scale := math.Abs(a)
	if s := math.Abs(b); s > scale {
		scale = s
	}
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= goldenTol*scale
}

// requireSurfaceClose holds a production likelihood surface to the
// reference within surfaceTol per cell and peakTol at the reference
// maximum, and returns the worst per-cell and at-peak divergences.
func requireSurfaceClose(t *testing.T, name string, got, want *dsp.Grid) (cell, peak float64) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: dimensions %dx%d != %dx%d", name, got.W, got.H, want.W, want.H)
	}
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > cell {
			cell = d
		}
	}
	wmax, ix, iy := want.Max()
	if wmax > 0 {
		peak = math.Abs(got.At(ix, iy)-wmax) / wmax
	}
	if cell > surfaceTol {
		t.Errorf("%s: worst cell diverges by %.4f (limit %.4f)", name, cell, surfaceTol)
	}
	if peak > peakTol {
		t.Errorf("%s: peak diverges by %.3f%% (limit %.3f%%)", name, 100*peak, 100*peakTol)
	}
	return cell, peak
}

// locateSurface runs one fix through the fix routine LocateOpts runs and
// returns its Result with a copy of the surface it localized on, which
// LocateOpts recycles with its workspace.
func locateSurface(t *testing.T, e *Engine, s *csi.Snapshot, opts LocateOptions) (*Result, *dsp.Grid) {
	t.Helper()
	r := e.getRun()
	defer e.putRun(r)
	res, err := e.locate(r, s, opts, bestByScore)
	if err != nil {
		t.Fatal(err)
	}
	return res, r.grid.Clone()
}

func requireSpecEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if !closeTo(got[i], want[i]) {
			t.Fatalf("%s: index %d: got %v, want %v", name, i, got[i], want[i])
		}
	}
}

// checkKernelParity runs every production kernel against its reference
// twin on one corrected snapshot. The polar plane itself is pinned by
// TestPolarFill32Golden (exact strides) and TestPolarFill32InterpError
// (default strides); the per-anchor maps below cover the projection.
func checkKernelParity(t *testing.T, e *Engine, a *Alpha) {
	t.Helper()
	combined, perAnchor, err := e.Likelihood(a)
	if err != nil {
		t.Fatal(err)
	}
	refCombined, refPerAnchor := e.LikelihoodReference(a)
	cell, peak := requireSurfaceClose(t, "combined likelihood", combined, refCombined)
	t.Logf("combined surface: worst cell %.4f, peak %.3f%%", cell, 100*peak)
	for i := range refPerAnchor {
		if (perAnchor[i] == nil) != (refPerAnchor[i] == nil) {
			t.Fatalf("anchor %d: perAnchor nil mismatch (opt=%v ref=%v)",
				i, perAnchor[i] == nil, refPerAnchor[i] == nil)
		}
		if refPerAnchor[i] != nil {
			cell, peak := requireSurfaceClose(t, "per-anchor map", perAnchor[i], refPerAnchor[i])
			t.Logf("anchor %d map: worst cell %.4f, peak %.3f%%", i, cell, 100*peak)
		}
	}
	for i := range e.anchors {
		if a.PresentBands(i) == 0 {
			continue
		}
		requireSpecEqual(t, "angle spectrum",
			e.angleSpectrum(a.Freqs, a.Values, a.Have, i),
			e.referenceAngleSpectrum(a.Freqs, a.Values, a.Have, i))
		requireSpecEqual(t, "distance spectrum",
			e.distanceSpectrum(a, i), e.referenceDistanceSpectrum(a, i))
	}
}

func TestOptimizedKernelsMatchReference(t *testing.T) {
	d, err := testbed.Paper(41)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	for _, tag := range []geom.Point{geom.Pt(0.8, -1.2), geom.Pt(-1.7, 2.1)} {
		s := d.Sounding(tag)
		a, err := Correct(s)
		if err != nil {
			t.Fatal(err)
		}
		checkKernelParity(t, e, a)
	}
}

func TestOptimizedKernelsMatchReferenceDegraded(t *testing.T) {
	d, err := testbed.Paper(42)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	s := d.Sounding(geom.Pt(-0.4, 1.3)).MaskedCopy()
	// Knock out scattered band rows, one anchor entirely, and a few
	// master rows (which poison the band for every anchor).
	K := s.NumBands()
	for k := 0; k < K; k += 3 {
		s.MaskMissing(k, 1)
	}
	for k := 0; k < K; k++ {
		s.MaskMissing(k, 3)
	}
	s.MaskMissing(5, 0)
	s.MaskMissing(11, 0)
	a, err := Correct(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Have == nil {
		t.Fatal("expected a partial alpha")
	}
	checkKernelParity(t, e, a)
}

// TestPooledCorrectMatchesCorrect pins the pooled corrected-channel path
// (correctInto) to the allocating reference (Correct) bit for bit, on a
// freshly built box and on a recycled one that previously held different
// data.
func TestPooledCorrectMatchesCorrect(t *testing.T) {
	d, err := testbed.Paper(43)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	s1 := d.Sounding(geom.Pt(1.1, 0.3))
	s2 := d.Sounding(geom.Pt(-2.0, -2.4)).MaskedCopy()
	s2.MaskMissing(2, 1)
	s2.MaskMissing(7, 0)

	var box alphaBox
	for _, s := range []*csi.Snapshot{s1, s2, s1} { // later runs recycle the box
		want, err := Correct(s)
		if err != nil {
			t.Fatal(err)
		}
		got := e.correctInto(s, 0, &box)
		if (got.Have == nil) != (want.Have == nil) {
			t.Fatalf("Have mask mismatch: got nil=%v want nil=%v", got.Have == nil, want.Have == nil)
		}
		for k := range want.Values {
			for i := range want.Values[k] {
				if want.Have != nil && got.Have[k][i] != want.Have[k][i] {
					t.Fatalf("Have[%d][%d]: got %v want %v", k, i, got.Have[k][i], want.Have[k][i])
				}
				for j := range want.Values[k][i] {
					if got.Values[k][i][j] != want.Values[k][i][j] {
						t.Fatalf("alpha[%d][%d][%d]: got %v want %v",
							k, i, j, got.Values[k][i][j], want.Values[k][i][j])
					}
				}
			}
		}
	}
}

// TestLocateMatchesReferencePipeline checks the end-to-end fix path: the
// likelihood surface a full-grid fix localizes on must match the
// reference pipeline's within the float32 surface bounds.
func TestLocateMatchesReferencePipeline(t *testing.T) {
	d, err := testbed.Paper(44)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	s := d.Sounding(geom.Pt(0.2, -2.1))
	_, surface := locateSurface(t, e, s, LocateOptions{})
	a, err := Correct(s)
	if err != nil {
		t.Fatal(err)
	}
	refCombined, _ := e.LikelihoodReference(a)
	cell, peak := requireSurfaceClose(t, "fix likelihood surface", surface, refCombined)
	t.Logf("worst cell %.4f, peak %.3f%%", cell, 100*peak)
}

// TestLocateEstimateParity localizes seeded random positions two ways —
// through Locate (the float32 refinement kernel) and through the
// reference pipeline (LikelihoodReference → candidates → bestByScore) —
// and bounds what the surface divergence does to the fixes: at least 95%
// of estimates within one grid cell of the reference's, and the error
// CDF's median and p90 within 2 cm and 5 cm of the reference's.
func TestLocateEstimateParity(t *testing.T) {
	const n = 200
	d, err := testbed.Paper(1)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	room := d.Env.Room.Inset(0.3)
	rng := rand.New(rand.NewPCG(1, 0xE57))
	cell := e.Config().CellM + 1e-9
	var errOpt, errRef []float64
	near := 0
	for k := 0; k < n; k++ {
		tag := geom.Pt(room.Min.X+rng.Float64()*room.Width(), room.Min.Y+rng.Float64()*room.Height())
		s := d.Sounding(tag)
		res, err := e.LocateOpts(s, LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Correct(s)
		if err != nil {
			t.Fatal(err)
		}
		refCombined, _ := e.LikelihoodReference(a)
		ref, ok := bestByScore(e.candidatesIn(new(fixRun), refCombined, 0, 0, refCombined.W, refCombined.H))
		if !ok {
			t.Fatalf("position %d: reference surface has no peak", k)
		}
		if d := res.Estimate.Sub(ref.Loc); math.Abs(d.X) <= cell && math.Abs(d.Y) <= cell {
			near++
		}
		errOpt = append(errOpt, res.Estimate.Dist(tag))
		errRef = append(errRef, ref.Loc.Dist(tag))
	}
	dp50 := 100 * (dsp.Percentile(errOpt, 50) - dsp.Percentile(errRef, 50))
	dp90 := 100 * (dsp.Percentile(errOpt, 90) - dsp.Percentile(errRef, 90))
	t.Logf("%d/%d estimates within one cell; error p50 %.1f → %.1f cm, p90 %.1f → %.1f cm",
		near, n, 100*dsp.Percentile(errRef, 50), 100*dsp.Percentile(errOpt, 50),
		100*dsp.Percentile(errRef, 90), 100*dsp.Percentile(errOpt, 90))
	if near*100 < 95*n {
		t.Errorf("only %d/%d estimates within one cell of the reference pipeline's", near, n)
	}
	if math.Abs(dp50) > 2 {
		t.Errorf("error p50 moved %.1f cm (limit 2)", dp50)
	}
	if math.Abs(dp90) > 5 {
		t.Errorf("error p90 moved %.1f cm (limit 5)", dp90)
	}
}

func TestEngineStats(t *testing.T) {
	d, err := testbed.Paper(45)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	if st := e.Stats(); st.ProjBuilds != 0 {
		t.Fatalf("ProjBuilds = %d after NewEngine, want 0 (the Fig. 6 tables build on demand)", st.ProjBuilds)
	}
	s := d.Sounding(geom.Pt(0.5, 0.5))
	for n := 0; n < 3; n++ {
		if _, err := e.LocateOpts(s, LocateOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.ProjBuilds != 0 {
		t.Fatalf("ProjBuilds = %d after Locate, want 0 (fixes never read the Fig. 6 tables)", st.ProjBuilds)
	}
	if st.TableBytes == 0 {
		t.Fatal("a fix's steering planes and tables should be accounted in TableBytes")
	}
	if st.Fixes != 3 {
		t.Fatalf("Fixes = %d, want 3", st.Fixes)
	}
	if st.PlaneBuilds != 1 {
		t.Fatalf("PlaneBuilds = %d, want 1 (single band plan)", st.PlaneBuilds)
	}
	// Under -race sync.Pool drops a quarter of its Puts, so three fixes
	// can miss every time; the count means something only without it.
	if !raceEnabled && st.PoolHits == 0 {
		t.Fatal("steady-state fixes should hit the workspace pool")
	}
	// A second band plan (Fig. 10-style subset sweep) builds one more plane.
	sub := &csi.Snapshot{
		Bands:  s.Bands[:8],
		Freqs:  s.Freqs[:8],
		Tag:    s.Tag[:8],
		Master: s.Master[:8],
	}
	if _, err := e.LocateOpts(sub, LocateOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PlaneBuilds != 2 {
		t.Fatalf("PlaneBuilds = %d after second band plan, want 2", st.PlaneBuilds)
	}
	// The Fig. 6 angle painting builds reference 0's tables once.
	a, err := Correct(s)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats().TableBytes
	e.AngleLikelihoodXY(a, 1)
	if st := e.Stats(); st.ProjBuilds != 1 || st.TableBytes <= before {
		t.Fatalf("after AngleLikelihoodXY: ProjBuilds = %d (want 1), TableBytes %d → %d (want growth)",
			st.ProjBuilds, before, st.TableBytes)
	}
}

// TestEngineConcurrentFixes hammers one shared engine from many
// goroutines with distinct snapshots and band plans. Run with -race this
// guards the plane and gated-table caches and the scratch pools.
func TestEngineConcurrentFixes(t *testing.T) {
	d, err := testbed.Paper(46)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	full := d.Sounding(geom.Pt(0.7, 1.4))
	tags := []geom.Point{
		geom.Pt(0.7, 1.4), geom.Pt(-1.2, -0.8), geom.Pt(1.9, -2.2), geom.Pt(-2.1, 2.3),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 4; n++ {
				var s *csi.Snapshot
				switch (w + n) % 3 {
				case 0:
					s = d.Fork(uint64(w*16 + n)).Sounding(tags[(w+n)%len(tags)])
				case 1: // band-subset plan: exercises the plane cache
					cut := 4 + 2*((w+n)%5)
					s = &csi.Snapshot{
						Bands:  full.Bands[:cut],
						Freqs:  full.Freqs[:cut],
						Tag:    full.Tag[:cut],
						Master: full.Master[:cut],
					}
				default: // degraded snapshot
					m := full.MaskedCopy()
					m.MaskMissing((w+n)%m.NumBands(), 1+(w+n)%3)
					s = m
				}
				if _, err := e.LocateOpts(s, LocateOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
