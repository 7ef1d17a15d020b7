package core

import (
	"math"
	"math/cmplx"
	"testing"

	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

func calibratedDeployment(t *testing.T, errDeg float64, seed uint64) (*testbed.Deployment, *Calibration) {
	t.Helper()
	env := testbed.CleanEnvironment(seed)
	cfg := testbed.Config{Anchors: 4, Antennas: 4, Seed: seed, AntennaPhaseErrDeg: errDeg}
	d, err := testbed.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meas, txPos := d.CalibrationSounding()
	freqs := make([]float64, len(d.Bands))
	for k, ch := range d.Bands {
		freqs[k] = ch.CenterFreq()
	}
	cal, err := EstimateCalibration(d.Anchors, txPos, freqs, meas)
	if err != nil {
		t.Fatal(err)
	}
	return d, cal
}

func TestEstimateCalibrationRecoversTrueErrors(t *testing.T) {
	d, cal := calibratedDeployment(t, 25, 71)
	for i := 0; i < 4; i++ {
		for j := 1; j < 4; j++ {
			// The correction rotor must be the inverse of the true
			// relative error.
			want := cmplx.Conj(d.TrueAntennaError(i, j))
			got := cal.Rotors[i][j]
			diff := math.Abs(geom.WrapAngle(cmplx.Phase(got) - cmplx.Phase(want)))
			if diff > geom.Rad(6) {
				t.Errorf("anchor %d antenna %d: correction off by %.1f°", i, j, geom.Deg(diff))
			}
		}
		if cal.Rotors[i][0] != 1 {
			t.Errorf("anchor %d antenna 0 rotor = %v, want 1", i, cal.Rotors[i][0])
		}
	}
	if cal.MaxErrorDeg() < 5 {
		t.Errorf("MaxErrorDeg = %.1f with σ=25° injected — estimator asleep?", cal.MaxErrorDeg())
	}
}

func TestCalibrationRestoresAccuracy(t *testing.T) {
	// Heavy calibration error degrades angle estimation; applying the
	// self-calibration must recover most of the loss.
	const errDeg = 35
	d, cal := calibratedDeployment(t, errDeg, 72)
	e := paperEngine(t, d)
	tags := []geom.Point{
		geom.Pt(0.8, -0.7), geom.Pt(-1.2, 1.1), geom.Pt(1.6, 1.8), geom.Pt(-0.4, -1.9),
	}
	var rawSum, calSum float64
	for _, tag := range tags {
		snap := d.Sounding(tag)
		raw, err := e.LocateOpts(snap, LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := cal.Apply(snap)
		if err != nil {
			t.Fatal(err)
		}
		corrected, err := e.LocateOpts(fixed, LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rawSum += raw.Estimate.Dist(tag)
		calSum += corrected.Estimate.Dist(tag)
	}
	t.Logf("mean error: uncalibrated %.3f m, calibrated %.3f m", rawSum/4, calSum/4)
	if calSum > rawSum {
		t.Errorf("calibration worsened accuracy: %.3f -> %.3f", rawSum/4, calSum/4)
	}
	if calSum/4 > 0.3 {
		t.Errorf("calibrated error %.3f m still large in a clean room", calSum/4)
	}
}

func TestCalibrationApplyValidation(t *testing.T) {
	_, cal := calibratedDeployment(t, 10, 73)
	if _, err := cal.Apply(&csi.Snapshot{}); err == nil {
		t.Error("invalid snapshot accepted")
	}
	// Anchor-count mismatch.
	d2, err := testbed.New(testbed.CleanEnvironment(75), testbed.Config{Anchors: 2, Antennas: 4, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cal.Apply(d2.Sounding(geom.Pt(0, 0))); err == nil {
		t.Error("anchor-count mismatch accepted")
	}
}

func TestEstimateCalibrationValidation(t *testing.T) {
	d, err := testbed.New(testbed.CleanEnvironment(74), testbed.Config{Anchors: 2, Antennas: 4, Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	meas, txPos := d.CalibrationSounding()
	freqs := make([]float64, len(d.Bands))
	for k, ch := range d.Bands {
		freqs[k] = ch.CenterFreq()
	}
	if _, err := EstimateCalibration(d.Anchors, txPos[:1], freqs, meas); err == nil {
		t.Error("tx position count mismatch accepted")
	}
	if _, err := EstimateCalibration(d.Anchors, txPos, freqs[:3], meas); err == nil {
		t.Error("frequency count mismatch accepted")
	}
	if _, err := EstimateCalibration(d.Anchors, txPos, nil, nil); err == nil {
		t.Error("empty measurements accepted")
	}
}
