package main

import (
	"testing"
	"time"

	"bloc/internal/geom"
	"bloc/internal/track"
)

// TestSmoothDtAfterGatedOutFix pins the tracker's update clock: a fix the
// Kalman gate rejects still predicts the filter forward to its arrival
// time, so the next update must predict only across the interval since
// that fix, not since the last accepted one. A reference filter fed the
// same fixes with the intended dt sequence must end in the identical
// state.
func TestSmoothDtAfterGatedOutFix(t *testing.T) {
	ts := newTagState(nil)
	clock := time.Unix(1000, 0)
	ts.now = func() time.Time { return clock }

	const tag = 7
	home, far := geom.Pt(0.5, 0.5), geom.Pt(2.4, -2.8)
	steps := []struct {
		at  time.Duration
		fix geom.Point
	}{
		{0, home},
		{100 * time.Millisecond, home},
		{200 * time.Millisecond, far}, // gated out
		{300 * time.Millisecond, home},
	}
	ref, err := track.New(track.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	start := clock
	prev := time.Duration(0)
	for i, st := range steps {
		clock = start.Add(st.at)
		ts.smooth(tag, st.fix)
		dt := 0.1 // smooth's first-fix default; initialization ignores it
		if i > 0 {
			dt = (st.at - prev).Seconds()
		}
		prev = st.at
		_, ok, err := ref.Update(st.fix, dt)
		if err != nil {
			t.Fatal(err)
		}
		if st.fix == far && ok {
			t.Fatal("reference filter accepted the far fix; the test needs a gated-out fix")
		}
	}
	got, want := ts.trks[tag].Export(), ref.Export()
	if got != want {
		t.Fatalf("tracker state after a gated-out fix\n got %+v\nwant %+v", got, want)
	}
	if last := ts.last[tag]; last != clock.UnixNano() {
		t.Fatalf("update clock at %d, want the last fix's %d", last, clock.UnixNano())
	}
}
