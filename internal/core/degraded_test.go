package core

import (
	"strings"
	"testing"

	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// Degraded-mode tests: the fault-tolerant acquisition plane completes
// rounds from partial snapshots, so the estimator must localize from a
// masked subset of anchor/band rows without corruption or crashes.

func degradedSetup(t *testing.T, seed uint64) (*testbed.Deployment, *Engine) {
	t.Helper()
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(dep.Anchors, DefaultConfig(dep.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	return dep, eng
}

func TestLocateWithSilencedAnchor(t *testing.T) {
	dep, eng := degradedSetup(t, 61)
	tag := geom.Pt(0.8, -0.5)
	snap := dep.Sounding(tag)

	full, err := eng.LocateOpts(snap, LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Silence one non-master anchor entirely.
	masked := snap.MaskedCopy()
	for k := range masked.Bands {
		masked.MaskMissing(k, 3)
	}
	res, err := eng.LocateOpts(masked, LocateOptions{})
	if err != nil {
		t.Fatalf("degraded locate failed: %v", err)
	}
	// Three anchors are plenty: error should stay room-scale accurate
	// and in the same neighborhood as the full fix.
	if res.Estimate.Dist(tag) > 2.0 {
		t.Errorf("3-anchor estimate %v too far from tag %v (full: %v)",
			res.Estimate, tag, full.Estimate)
	}
}

func TestLocateWithMissingBands(t *testing.T) {
	dep, eng := degradedSetup(t, 62)
	tag := geom.Pt(-0.6, 0.7)
	snap := dep.Sounding(tag)
	masked := snap.MaskedCopy()
	// Drop ~20% of bands, rotating across anchors — including master
	// rows, which invalidate the whole band for everyone.
	for k := range masked.Bands {
		if k%5 == 0 {
			masked.MaskMissing(k, k/5%masked.NumAnchors())
		}
	}
	res, err := eng.LocateOpts(masked, LocateOptions{})
	if err != nil {
		t.Fatalf("locate with missing bands failed: %v", err)
	}
	if res.Estimate.Dist(tag) > 2.0 {
		t.Errorf("band-degraded estimate %v too far from tag %v", res.Estimate, tag)
	}
}

func TestLocateRejectsBelowTwoAnchors(t *testing.T) {
	dep, eng := degradedSetup(t, 63)
	snap := dep.Sounding(geom.Pt(0, 0))
	masked := snap.MaskedCopy()
	for k := range masked.Bands {
		for i := 1; i < masked.NumAnchors(); i++ {
			masked.MaskMissing(k, i)
		}
	}
	if _, err := eng.LocateOpts(masked, LocateOptions{}); err == nil {
		t.Fatal("locate with a single surviving anchor should fail")
	} else if !strings.Contains(err.Error(), "anchors usable") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestLocateRejectsMissingMaster(t *testing.T) {
	dep, eng := degradedSetup(t, 64)
	snap := dep.Sounding(geom.Pt(0, 0))
	masked := snap.MaskedCopy()
	// No master rows at all → no ĥ00 on any band → no usable α anywhere.
	for k := range masked.Bands {
		masked.MaskMissing(k, 0)
	}
	if _, err := eng.LocateOpts(masked, LocateOptions{}); err == nil {
		t.Fatal("locate without any master row should fail")
	}
}

func TestCorrectMaskPropagation(t *testing.T) {
	dep, _ := degradedSetup(t, 65)
	snap := dep.Sounding(geom.Pt(0.3, 0.3))
	masked := snap.MaskedCopy()
	masked.MaskMissing(4, 2) // anchor 2 misses band 4
	masked.MaskMissing(7, 0) // master misses band 7

	a, err := Correct(masked)
	if err != nil {
		t.Fatal(err)
	}
	if a.Present(4, 2) {
		t.Error("alpha should be missing where the anchor row is missing")
	}
	if a.Present(4, 1) != true {
		t.Error("other anchors keep band 4")
	}
	for i := 0; i < a.NumAnchors(); i++ {
		if a.Present(7, i) {
			t.Errorf("band 7 has no master row; anchor %d must be masked", i)
		}
	}
	if got := a.PresentBands(2); got != len(masked.Bands)-2 {
		t.Errorf("anchor 2 usable bands = %d, want %d", got, len(masked.Bands)-2)
	}
	if got := len(a.PresentAnchors()); got != 4 {
		t.Errorf("present anchors = %d, want 4", got)
	}

	// A complete snapshot keeps the nil fast path.
	af, err := Correct(snap)
	if err != nil {
		t.Fatal(err)
	}
	if af.Have != nil {
		t.Error("complete snapshot should produce a nil alpha mask")
	}
}

func TestBaselinesDegrade(t *testing.T) {
	dep, eng := degradedSetup(t, 66)
	tag := geom.Pt(0.5, 0.2)
	snap := dep.Sounding(tag)
	masked := snap.MaskedCopy()
	for k := range masked.Bands {
		masked.MaskMissing(k, 1)
	}
	if _, err := eng.LocateAoA(masked); err != nil {
		t.Errorf("AoA with 3 anchors: %v", err)
	}
	if _, err := eng.LocateAoASoft(masked); err != nil {
		t.Errorf("AoA-soft with 3 anchors: %v", err)
	}
	if _, err := eng.LocateRSSI(masked); err != nil {
		t.Errorf("RSSI with 3 anchors: %v", err)
	}
	if _, err := eng.LocateMUSIC(masked); err != nil {
		t.Errorf("MUSIC with 3 anchors: %v", err)
	}
	// RSSI needs 3 ranges: with only 2 anchors left it must refuse.
	for k := range masked.Bands {
		masked.MaskMissing(k, 2)
	}
	if _, err := eng.LocateRSSI(masked); err == nil {
		t.Error("RSSI with 2 anchors should fail")
	}
}
