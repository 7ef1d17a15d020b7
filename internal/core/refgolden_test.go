package core

import (
	"math"
	"math/cmplx"
	"testing"

	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// Reference-failover golden tests: the re-referenced α path (CorrectRef,
// the pooled correctInto, the ref-parameterized kernels and projection
// tables) must agree with the reference oracle for EVERY reference
// index, not just the paper's hard-wired 0 — bit for bit for the
// correction, within the golden bounds of golden_test.go for the
// kernels — and the finite guard must keep NaN/Inf and denormal
// reference tones out of the grids.

// TestOptimizedKernelsMatchReferenceAllRefs runs the full kernel-parity
// sweep (per-anchor maps, spectra, combined map) once per non-zero
// reference index.
func TestOptimizedKernelsMatchReferenceAllRefs(t *testing.T) {
	d, err := testbed.Paper(47)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	s := d.Sounding(geom.Pt(0.9, -1.6))
	for ref := 1; ref < s.NumAnchors(); ref++ {
		a, err := CorrectRef(s, ref)
		if err != nil {
			t.Fatal(err)
		}
		if a.Ref != ref {
			t.Fatalf("alpha Ref = %d, want %d", a.Ref, ref)
		}
		checkKernelParity(t, e, a)
	}
}

// TestPooledCorrectMatchesCorrectAllRefs pins correctInto to CorrectRef
// bit for bit for every reference index, on full and masked snapshots.
func TestPooledCorrectMatchesCorrectAllRefs(t *testing.T) {
	d, err := testbed.Paper(48)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	full := d.Sounding(geom.Pt(-1.4, 0.6))
	masked := d.Sounding(geom.Pt(0.3, 2.0)).MaskedCopy()
	masked.MaskMissing(4, 2)
	masked.MaskMissing(9, 0)
	for _, s := range []*csi.Snapshot{full, masked} {
		for ref := 0; ref < s.NumAnchors(); ref++ {
			want, err := CorrectRef(s, ref)
			if err != nil {
				t.Fatal(err)
			}
			box := e.getAlpha(s.NumBands(), s.NumAnchors(), s.NumAntennas())
			got := e.correctInto(s, ref, box)
			if got.Ref != want.Ref {
				t.Fatalf("ref %d: Ref mismatch %d != %d", ref, got.Ref, want.Ref)
			}
			if (got.Have == nil) != (want.Have == nil) {
				t.Fatalf("ref %d: Have nil mismatch", ref)
			}
			for k := range want.Values {
				for i := range want.Values[k] {
					if want.Have != nil && got.Have[k][i] != want.Have[k][i] {
						t.Fatalf("ref %d: Have[%d][%d] mismatch", ref, k, i)
					}
					for j := range want.Values[k][i] {
						if got.Values[k][i][j] != want.Values[k][i][j] {
							t.Fatalf("ref %d: alpha[%d][%d][%d]: got %v want %v",
								ref, k, i, j, got.Values[k][i][j], want.Values[k][i][j])
						}
					}
				}
			}
			e.putAlpha(box)
		}
	}
}

// TestLocateRefMatchesReferencePipelineAllRefs checks the end-to-end
// pooled fix path per reference: the likelihood surface LocateRef reports
// must match LikelihoodReference's for the same reference.
func TestLocateRefMatchesReferencePipelineAllRefs(t *testing.T) {
	d, err := testbed.Paper(49)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	s := d.Sounding(geom.Pt(1.6, 1.1))
	for ref := 1; ref < s.NumAnchors(); ref++ {
		res, err := e.LocateRef(s, ref)
		if err != nil {
			t.Fatal(err)
		}
		a, err := CorrectRef(s, ref)
		if err != nil {
			t.Fatal(err)
		}
		refCombined, _ := e.LikelihoodReference(a)
		cell, peak := requireSurfaceClose(t, "LocateRef likelihood surface", res.Likelihood, refCombined)
		t.Logf("ref %d: worst cell %.4f, peak %.3f%%", ref, cell, 100*peak)
	}
}

// TestCorrectRefMatchesCorrectAtZero pins the relaxed formula to the
// original Eq. 10 path at reference 0: Master[k][0] is 1 by construction,
// so the reference factor collapses to ĥ*_00 exactly.
func TestCorrectRefMatchesCorrectAtZero(t *testing.T) {
	d, err := testbed.Paper(50)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Sounding(geom.Pt(-0.8, -0.9))
	a0, err := Correct(s)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := CorrectRef(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a0.Values {
		for i := range a0.Values[k] {
			for j := range a0.Values[k][i] {
				if a0.Values[k][i][j] != ar.Values[k][i][j] {
					t.Fatalf("alpha[%d][%d][%d]: Correct %v != CorrectRef(0) %v",
						k, i, j, a0.Values[k][i][j], ar.Values[k][i][j])
				}
			}
		}
	}
}

// TestLocateRefSurvivesDeadMaster is the failover claim in miniature:
// with every row of anchor 0 masked (dead master daemon), ref-0
// localization has nothing to correct against, while re-referencing to a
// healthy anchor recovers an accurate fix from the surviving rows.
func TestLocateRefSurvivesDeadMaster(t *testing.T) {
	d, err := testbed.Paper(51)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(0.7, -1.1)
	s := d.Sounding(tag).MaskedCopy()
	for k := 0; k < s.NumBands(); k++ {
		s.MaskMissing(k, 0)
	}
	if _, err := e.Locate(s); err == nil {
		t.Fatal("ref-0 localization should fail with every master row missing")
	}
	res, err := e.LocateRef(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Three surviving anchors in multipath: tolerate a coarser fix than
	// the full-deployment median, but it must stay in the right corner.
	if d := res.Estimate.Dist(tag); d > 0.8 {
		t.Fatalf("re-referenced fix is %.2f m off (estimate %v, truth %v)", d, res.Estimate, tag)
	}
}

// TestCorrectRefFiniteGuard feeds NaN, Inf and denormal tones through the
// corrected-channel paths and asserts the poisoned rows are masked (not
// propagated) on both the allocating and the pooled path.
func TestCorrectRefFiniteGuard(t *testing.T) {
	d, err := testbed.Paper(52)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	s := d.Sounding(geom.Pt(1.2, 0.4))
	s.Tag[2][1][3] = complex(math.NaN(), 0)  // corrupt tone in anchor 1, band 2
	s.Master[5][2] = complex(math.Inf(1), 0) // corrupt inter-anchor tone
	s.Tag[7][0][0] = complex(1e-300, 0)      // denormal reference tone: band 7 unusable at ref 0
	for _, path := range []string{"alloc", "pooled"} {
		var a *Alpha
		if path == "alloc" {
			var err error
			a, err = CorrectRef(s, 0)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			box := e.getAlpha(s.NumBands(), s.NumAnchors(), s.NumAntennas())
			defer e.putAlpha(box)
			a = e.correctInto(s, 0, box)
		}
		if a.Have == nil {
			t.Fatalf("%s: guard should materialize a mask", path)
		}
		if a.Present(2, 1) {
			t.Fatalf("%s: NaN row should be masked", path)
		}
		if a.Present(5, 2) {
			t.Fatalf("%s: Inf row should be masked", path)
		}
		for i := 0; i < a.NumAnchors(); i++ {
			if a.Present(7, i) {
				t.Fatalf("%s: denormal reference tone should mask band 7 anchor %d", path, i)
			}
		}
		for k := range a.Values {
			for i := range a.Values[k] {
				for j, v := range a.Values[k][i] {
					if cmplx.IsNaN(v) || cmplx.IsInf(v) {
						t.Fatalf("%s: alpha[%d][%d][%d] = %v leaked past the guard", path, k, i, j, v)
					}
				}
			}
		}
	}
	// The poisoned snapshot must still localize — and never emit NaN.
	res, err := e.Locate(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Estimate.X) || math.IsNaN(res.Estimate.Y) {
		t.Fatalf("fix is NaN: %v", res.Estimate)
	}
	if st := e.Stats(); st.RowsMasked == 0 {
		t.Fatal("guard trips should be counted in Stats().RowsMasked")
	}
}

// TestLocateRSSISkipsCorruptAnchors: the RSSI fallback must ignore
// anchors whose magnitudes are NaN/zero instead of inverting them into
// Inf ranges.
func TestLocateRSSISkipsCorruptAnchors(t *testing.T) {
	env := testbed.CleanEnvironment(53)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 4, Antennas: 4, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	s := d.Sounding(geom.Pt(0.4, 0.9))
	for k := range s.Tag {
		for j := range s.Tag[k][2] {
			s.Tag[k][2][j] = complex(math.NaN(), math.NaN())
		}
	}
	res, err := e.LocateRSSI(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Estimate.X) || math.IsNaN(res.Estimate.Y) {
		t.Fatalf("RSSI fix is NaN: %v", res.Estimate)
	}
	// Zero out a second anchor entirely: only 2 usable remain -> error,
	// not an Inf-range grid search.
	for k := range s.Tag {
		for j := range s.Tag[k][3] {
			s.Tag[k][3][j] = 0
		}
	}
	if _, err := e.LocateRSSI(s); err == nil {
		t.Fatal("RSSI with 2 usable anchors should fail, not fabricate a fix")
	}
}
