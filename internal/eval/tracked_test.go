package eval

import "testing"

func TestMeasureTracked(t *testing.T) {
	s := perfSuite(t)
	r, err := s.MeasureTracked(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.NsPerFix <= 0 || r.FixesPerSec <= 0 {
		t.Fatalf("degenerate measurement: %+v", r)
	}
	// Settled stationary tags must be served by the gated path: that is
	// the steady-state regime the measurement prices.
	if r.GatedFrac < 0.5 {
		t.Fatalf("gated fraction %.2f, want >= 0.5 for settled stationary tags", r.GatedFrac)
	}
	if r.TileFrac <= 0 || r.TileFrac > 0.75 {
		t.Fatalf("tile fraction %.2f outside (0, 0.75]", r.TileFrac)
	}
}

func TestAblationGatedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario walk is slow")
	}
	ps, err := AblationGated(5, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(ps))
	}
	for _, p := range ps {
		// The gate only decides where to look: its error distribution
		// must stay pinned to the full grid's (2 cm ≈ half a cell of
		// slack for float32 rounding on fallback-free steps).
		if diff := p.Gated.Median - p.Full.Median; diff > 0.02 {
			t.Errorf("%s: gated median %.3f m vs full %.3f m", p.Name, p.Gated.Median, p.Full.Median)
		}
		if p.FallbackRate < 0 || p.FallbackRate > 1 {
			t.Errorf("%s: fallback rate %.2f outside [0,1]", p.Name, p.FallbackRate)
		}
		if p.TrackRejected < 0 || p.TrackRejected > p.Fallbacks {
			t.Errorf("%s: %d track-rejected of %d fallbacks", p.Name, p.TrackRejected, p.Fallbacks)
		}
	}
	// The adversarial scenarios must actually exercise the fallback
	// triggers — otherwise the ablation is not testing the gate.
	if ps[3].FallbackRate == 0 {
		t.Errorf("teleport scenario never fell back; the gate is not being exercised")
	}
}
