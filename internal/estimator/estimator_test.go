package estimator

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
	"sort"
	"sync"
	"testing"
	"time"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/durable"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/testbed"
	"bloc/internal/track"
)

// fixture is the paper testbed with one engine shared by every case.
type fixture struct {
	dep *testbed.Deployment
	eng *core.Engine
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	dep, err := testbed.Paper(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{dep: dep, eng: eng}
}

// sounding is one round of a tag at p; distinct salts give independent
// noise and oscillators.
func (fx *fixture) sounding(salt uint64, p geom.Point) *csi.Snapshot {
	return fx.dep.Fork(salt).Sounding(p)
}

// survey records a coarse fingerprint DB with bloc-dataset's fork-salt
// convention.
func (fx *fixture) survey(t *testing.T) *fingerprint.DB {
	t.Helper()
	db, err := fingerprint.Survey(fx.dep.Env.Room, len(fx.dep.Anchors),
		func(point, rep int, p geom.Point) *csi.Snapshot {
			return fx.dep.Fork(0x5E0<<16 | uint64(point)<<4 | uint64(rep)).Sounding(p)
		}, fingerprint.SurveyOptions{StepM: 1, Samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// oneAnchorSurvey is a survey that observed only anchor 0, so no live
// signature overlaps it on the 2 anchors a KNN match needs.
func oneAnchorSurvey(anchors int) *fingerprint.DB {
	rssi := make([]float64, anchors)
	for i := range rssi {
		rssi[i] = math.NaN()
	}
	rssi[0] = -40
	return &fingerprint.DB{
		Room:    testbed.PaperRoom(),
		Anchors: anchors,
		StepM:   1,
		Points:  []fingerprint.RefPoint{{Pos: geom.Pt(2.5, 3), RSSI: rssi}},
	}
}

// skewedCalibration rotates every antenna but the first by a large
// phase error, so a calibrated CSI fix differs from a raw one.
func skewedCalibration(t *testing.T, anchors, antennas int) *core.Calibration {
	t.Helper()
	rotors := make([][]complex128, anchors)
	for i := range rotors {
		rotors[i] = make([]complex128, antennas)
		rotors[i][0] = 1
		for a := 1; a < antennas; a++ {
			rotors[i][a] = cmplx.Exp(complex(0, 0.9*float64(a)+0.3*float64(i)))
		}
	}
	cal, err := core.RestoreCalibration(rotors)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// garbage zeroes every tone, so no anchor contributes an RSSI reading.
func garbage(s *csi.Snapshot) *csi.Snapshot {
	for k := range s.Tag {
		for i := range s.Tag[k] {
			for j := range s.Tag[k][i] {
				s.Tag[k][i][j] = 0
			}
		}
	}
	return s
}

// TestLocateRungs drives Locate down every rung of the ladder on testbed
// rounds. A fresh tag's first fix initializes its tracker at the raw
// point, so for untracked tags Locate must return exactly what the rung
// computes.
func TestLocateRungs(t *testing.T) {
	fx := newFixture(t)
	db := fx.survey(t)
	cal := skewedCalibration(t, len(fx.dep.Anchors), fx.dep.Anchors[0].N)
	pos := geom.Pt(1.7, 2.4)
	const tag = 9

	csiFix := func(cal *core.Calibration) func(*csi.Snapshot) (geom.Point, error) {
		return func(snap *csi.Snapshot) (geom.Point, error) {
			if cal != nil {
				var err error
				if snap, err = cal.Apply(snap); err != nil {
					return geom.Point{}, err
				}
			}
			res, err := fx.eng.LocateOpts(snap, core.LocateOptions{})
			if err != nil {
				return geom.Point{}, err
			}
			return res.Estimate, nil
		}
	}
	knnFix := func(snap *csi.Snapshot) (geom.Point, error) {
		return db.Locate(fingerprint.Signature(snap))
	}
	rssiFix := func(snap *csi.Snapshot) (geom.Point, error) {
		res, err := fx.eng.LocateRSSI(snap)
		if err != nil {
			return geom.Point{}, err
		}
		return res.Estimate, nil
	}

	coarse := func(tier locserver.FixTier) locserver.RoundInfo {
		return locserver.RoundInfo{Tag: tag, Round: 2, Coarse: true, Tier: tier}
	}
	cases := []struct {
		name  string
		fpdb  *fingerprint.DB
		cal   *core.Calibration
		warm  bool // serve one untracked CSI round first, initializing the track
		info  locserver.RoundInfo
		snap  *csi.Snapshot
		want  func(*csi.Snapshot) (geom.Point, error) // the rung's raw fix; nil when the track smooths it
		gated uint64                                  // engine GatedFixes delta of the case's round
		full  uint64                                  // engine FullFixes delta of the case's round
		gate  bool                                    // the round must observe the tag's GatePolicy
	}{
		{
			name:  "tracked with a track is gated",
			warm:  true,
			info:  locserver.RoundInfo{Tag: tag, Round: 2, Tracked: true, Tier: locserver.TierGatedCSI},
			snap:  fx.sounding(2, pos),
			gated: 1,
			gate:  true,
		},
		{
			name: "untracked with a track takes the full grid",
			warm: true,
			info: locserver.RoundInfo{Tag: tag, Round: 2, Tier: locserver.TierFullCSI},
			snap: fx.sounding(2, pos),
			full: 1,
		},
		{
			name: "tracked without a track takes the full grid",
			info: locserver.RoundInfo{Tag: tag, Round: 2, Tracked: true, Tier: locserver.TierGatedCSI},
			snap: fx.sounding(2, pos),
			want: csiFix(nil),
			full: 1,
		},
		{
			name: "full CSI is calibrated",
			cal:  cal,
			info: locserver.RoundInfo{Tag: tag, Round: 2, Tier: locserver.TierFullCSI},
			snap: fx.sounding(2, pos),
			want: csiFix(cal),
			full: 1,
		},
		{
			name: "fingerprint with a warm filter",
			fpdb: db,
			cal:  cal,
			info: coarse(locserver.TierFingerprint),
			snap: fx.sounding(2, pos),
			want: knnFix,
		},
		{
			name: "fingerprint without a survey falls to the centroid",
			info: coarse(locserver.TierFingerprint),
			snap: fx.sounding(2, pos),
			want: rssiFix,
		},
		{
			name: "fingerprint overlapping one surveyed anchor falls to the centroid",
			fpdb: oneAnchorSurvey(len(fx.dep.Anchors)),
			info: coarse(locserver.TierFingerprint),
			snap: fx.sounding(2, pos),
			want: rssiFix,
		},
		{
			name: "fingerprint with a cold filter falls to the centroid",
			fpdb: db,
			info: coarse(locserver.TierFingerprint),
			snap: garbage(fx.sounding(2, pos)),
			want: rssiFix,
		},
		{
			name: "centroid ignores the survey and the calibration",
			fpdb: db,
			cal:  cal,
			info: coarse(locserver.TierCentroid),
			snap: fx.sounding(2, pos),
			want: rssiFix,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(fx.eng, tc.fpdb, nil)
			e.SetCalibration(tc.cal)
			if tc.warm {
				if _, err := e.Locate(locserver.RoundInfo{Tag: tag, Round: 1, Tier: locserver.TierFullCSI},
					fx.sounding(1, pos)); err != nil {
					t.Fatal(err)
				}
			}
			// Inflate the tag's gating hysteresis, so an observed gated
			// success shows as a prior shrinking back.
			var inflated float64
			if tc.gate {
				if e.prior(tag) == nil {
					t.Fatal("warm-up left no usable track")
				}
				g := e.tags[tag].gate
				g.Observe(&core.Result{Fallback: "disagree"})
				inflated = g.Prior(pos, 1, 1, 0).SemiMajor
			}
			before := fx.eng.Stats()
			got, err := e.Locate(tc.info, tc.snap)
			after := fx.eng.Stats()
			if d := after.GatedFixes - before.GatedFixes; d != tc.gated {
				t.Errorf("GatedFixes +%d, want +%d", d, tc.gated)
			}
			if d := after.FullFixes - before.FullFixes; d != tc.full {
				t.Errorf("FullFixes +%d, want +%d", d, tc.full)
			}
			var g *core.GatePolicy
			if st := e.tags[tag]; st != nil {
				g = st.gate
			}
			switch {
			case tc.gate:
				if p := g.Prior(pos, 1, 1, 0).SemiMajor; !(p < inflated) {
					t.Errorf("GatePolicy not observed: prior semi-major %v, inflated %v", p, inflated)
				}
			case g != nil:
				t.Error("an untracked round created a GatePolicy")
			}
			if tc.want == nil {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			want, wantErr := tc.want(tc.snap)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("Locate err %v, the rung's %v", err, wantErr)
			}
			if got != want {
				t.Fatalf("Locate = %v, the rung computes %v", got, want)
			}
		})
	}

	// The calibrated and fingerprint cases prove something only if their
	// rung's fix differs from the one it replaces.
	raw, _ := csiFix(nil)(fx.sounding(2, pos))
	calibrated, _ := csiFix(cal)(fx.sounding(2, pos))
	if raw == calibrated {
		t.Fatalf("calibration leaves the fix at %v; the calibrated case needs one that moves it", raw)
	}
	knn, _ := knnFix(fx.sounding(2, pos))
	centroid, _ := rssiFix(fx.sounding(2, pos))
	if knn == centroid {
		t.Fatalf("KNN and centroid agree at %v; the fingerprint case needs them apart", knn)
	}
	// So does the cold-filter case only if the filter really is cold.
	e := New(fx.eng, db, nil)
	e.Locate(coarse(locserver.TierFingerprint), garbage(fx.sounding(2, pos)))
	if _, err := e.fingerprintFix(tag); !errors.Is(err, fingerprint.ErrNoMatch) {
		t.Fatalf("fingerprint rung on a cold filter: %v, want ErrNoMatch", err)
	}
}

// TestExportRestoreRoundTrip pins the checkpoint hooks: a state exported,
// restored into a fresh estimator and exported again encodes to the same
// bytes.
func TestExportRestoreRoundTrip(t *testing.T) {
	fx := newFixture(t)
	e := New(fx.eng, nil, nil)
	clock := time.Unix(1000, 0)
	e.now = func() time.Time { return clock }
	e.SetCalibration(skewedCalibration(t, len(fx.dep.Anchors), fx.dep.Anchors[0].N))
	for step := 0; step < 4; step++ {
		clock = clock.Add(100 * time.Millisecond)
		for tag := uint16(1); tag <= 5; tag++ {
			e.smooth(tag, geom.Pt(0.3*float64(tag)+0.05*float64(step), 1+0.1*float64(step)))
		}
	}
	e.smooth(3, geom.Pt(4.5, -3)) // gated out: the track misses once

	encode := func(ext durable.External) []byte {
		sort.Slice(ext.Tracks, func(i, j int) bool { return ext.Tracks[i].Tag < ext.Tracks[j].Tag })
		return durable.EncodeSnapshot(&durable.State{External: ext}, 1)
	}
	want := e.Export()
	if len(want.Tracks) != 5 || want.Calib == nil {
		t.Fatalf("export holds %d tracks, calibration %v; want 5 and a calibration", len(want.Tracks), want.Calib != nil)
	}
	restored := New(fx.eng, nil, nil)
	if err := restored.Restore(want); err != nil {
		t.Fatal(err)
	}
	if got := encode(restored.Export()); !bytes.Equal(got, encode(want)) {
		t.Fatal("export → restore → export is not bit-identical")
	}
}

// TestTagStateBounded pins the per-tag cap: a stream of fresh tag IDs
// clears the map wholesale at maxTags, and a cleared tag's next fix
// starts a fresh track.
func TestTagStateBounded(t *testing.T) {
	e := New(nil, nil, nil)
	home, far := geom.Pt(0.5, 0.5), geom.Pt(4, 5)
	e.smooth(0, home)
	for tag := 1; tag <= maxTags; tag++ {
		e.smooth(uint16(tag), home)
		if n := len(e.tags); n > maxTags {
			t.Fatalf("%d tags held after %d fresh tags, cap %d", n, tag+1, maxTags)
		}
	}
	if _, ok := e.tags[0]; ok {
		t.Fatal("tag 0 survived cap + 1 fresh tags")
	}
	// A live track at home would gate the far fix out and coast; a fresh
	// one initializes at it.
	if got := e.smooth(0, far); got != far {
		t.Fatalf("cleared tag's next fix = %v, want a fresh track at %v", got, far)
	}
	ref, err := track.New(track.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ref.Update(far, 0.1); err != nil {
		t.Fatal(err)
	}
	if got, want := e.tags[0].trk.Export(), ref.Export(); got != want {
		t.Fatalf("cleared tag's tracker\n got %+v\nwant %+v", got, want)
	}
}

// TestLocateConcurrent serves rounds of distinct tags from several
// goroutines while checkpoints export and the calibration changes, as a
// cell's fix workers and checkpoint loop do.
func TestLocateConcurrent(t *testing.T) {
	fx := newFixture(t)
	e := New(fx.eng, fx.survey(t), nil)
	cal := skewedCalibration(t, len(fx.dep.Anchors), fx.dep.Anchors[0].N)
	snap := fx.sounding(1, geom.Pt(2, 3))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				tier := locserver.TierFingerprint
				if r%2 == 1 {
					tier = locserver.TierCentroid
				}
				info := locserver.RoundInfo{Tag: uint16(w*100 + r%3), Round: uint32(r), Coarse: true, Tier: tier}
				if _, err := e.Locate(info, snap); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 20; r++ {
			e.SetCalibration(cal)
			e.Export()
		}
	}()
	wg.Wait()
	if n := len(e.Export().Tracks); n != 12 {
		t.Fatalf("%d tracks after 4 workers × 3 tags, want 12", n)
	}
}

// TestSmoothDtAfterGatedOutFix pins the tracker's update clock: a fix the
// Kalman gate rejects still predicts the filter forward to its arrival
// time, so the next update must predict only across the interval since
// that fix, not since the last accepted one. A reference filter fed the
// same fixes with the intended dt sequence must end in the identical
// state.
func TestSmoothDtAfterGatedOutFix(t *testing.T) {
	e := New(nil, nil, nil)
	clock := time.Unix(1000, 0)
	e.now = func() time.Time { return clock }

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
		e.smooth(tag, st.fix)
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
	got, want := e.tags[tag].trk.Export(), ref.Export()
	if got != want {
		t.Fatalf("tracker state after a gated-out fix\n got %+v\nwant %+v", got, want)
	}
	if last := e.tags[tag].last; last != clock.UnixNano() {
		t.Fatalf("update clock at %d, want the last fix's %d", last, clock.UnixNano())
	}
}
