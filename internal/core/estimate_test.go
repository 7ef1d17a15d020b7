package core

import (
	"testing"

	"bloc/internal/dsp"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

func TestLocateAoAFreeSpace(t *testing.T) {
	// With clean LOS, AoA triangulation from 4 anchors should also be
	// accurate — the baseline is only weak under multipath.
	env := testbed.CleanEnvironment(10)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 4, Antennas: 4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(0.9, 0.6)
	res, err := e.LocateAoA(d.Sounding(tag))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Dist(tag) > 0.35 {
		t.Errorf("AoA free-space error %.3f m too large", res.Estimate.Dist(tag))
	}
}

func TestBLocBeatsAoAInMultipath(t *testing.T) {
	// The headline claim (§8.2): in the multipath-rich room BLoc's joint
	// angle+distance likelihood with multipath rejection beats
	// AoA-combining. Tested over several positions; BLoc must win on
	// aggregate error.
	d, err := testbed.Paper(14)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tags := []geom.Point{
		geom.Pt(0.8, -1.1), geom.Pt(-1.6, 0.4), geom.Pt(1.7, 1.9),
		geom.Pt(-0.3, -2.1), geom.Pt(0.1, 0.9), geom.Pt(-2.0, 2.2),
		geom.Pt(1.2, -0.3), geom.Pt(2.0, -2.2),
	}
	var blocSum, aoaSum float64
	for _, tag := range tags {
		snap := d.Sounding(tag)
		rb, err := e.LocateOpts(snap, LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ra, err := e.LocateAoA(snap)
		if err != nil {
			t.Fatal(err)
		}
		blocSum += rb.Estimate.Dist(tag)
		aoaSum += ra.Estimate.Dist(tag)
	}
	blocMean := blocSum / float64(len(tags))
	aoaMean := aoaSum / float64(len(tags))
	t.Logf("mean error: BLoc %.3f m, AoA %.3f m", blocMean, aoaMean)
	if blocMean >= aoaMean {
		t.Errorf("BLoc (%.3f m) did not beat AoA baseline (%.3f m)", blocMean, aoaMean)
	}
	if blocMean > 1.2 {
		t.Errorf("BLoc mean error %.3f m too large for the paper room", blocMean)
	}
}

func TestLocateRSSI(t *testing.T) {
	// Free space: RSSI ranging is exact in our amplitude model, so the
	// baseline should work there...
	env := testbed.CleanEnvironment(12)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 4, Antennas: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(0.5, 1.0)
	res, err := e.LocateRSSI(d.Sounding(tag))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Dist(tag) > 0.4 {
		t.Errorf("RSSI free-space error %.3f m", res.Estimate.Dist(tag))
	}
	// ...but multipath fading must hurt it badly relative to free space.
	dm, err := testbed.Paper(12)
	if err != nil {
		t.Fatal(err)
	}
	em := paperEngine(t, dm)
	var worst float64
	for _, tg := range []geom.Point{geom.Pt(0.5, 1.0), geom.Pt(-1.2, -0.8), geom.Pt(1.8, 0.3)} {
		rm, err := em.LocateRSSI(dm.Sounding(tg))
		if err != nil {
			t.Fatal(err)
		}
		if e := rm.Estimate.Dist(tg); e > worst {
			worst = e
		}
	}
	if worst < 0.3 {
		t.Errorf("RSSI in the multipath room is suspiciously accurate (worst %.3f m)", worst)
	}
}

func TestShortestDistanceSelectorDiffersFromBLoc(t *testing.T) {
	// §8.7: the two selectors share the likelihood but choose peaks
	// differently. Both must return valid results; BLoc must be at least
	// as accurate on aggregate over multipath positions.
	d, err := testbed.Paper(15)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tags := []geom.Point{
		geom.Pt(0.8, -1.1), geom.Pt(-1.6, 0.4), geom.Pt(1.7, 1.9),
		geom.Pt(-0.4, 2.4), geom.Pt(0.0, -0.5), geom.Pt(-2.1, -2.3),
	}
	var blocSum, sdSum float64
	for _, tag := range tags {
		snap := d.Sounding(tag)
		rb, err := e.LocateOpts(snap, LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := e.LocateShortestDistance(snap)
		if err != nil {
			t.Fatal(err)
		}
		blocSum += rb.Estimate.Dist(tag)
		sdSum += rs.Estimate.Dist(tag)
	}
	t.Logf("mean error: BLoc %.3f m, shortest-distance %.3f m",
		blocSum/float64(len(tags)), sdSum/float64(len(tags)))
	if blocSum > sdSum*1.15 {
		t.Errorf("BLoc (%.3f) clearly worse than shortest-distance (%.3f)", blocSum, sdSum)
	}
}

func TestCandidatesCarryScoreComponents(t *testing.T) {
	d, err := testbed.Paper(16)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	res, err := e.LocateOpts(d.Sounding(geom.Pt(0.3, 0.3)), LocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range res.Candidates {
		if c.PeakValue <= 0 || c.SumDist <= 0 {
			t.Errorf("degenerate candidate %+v", c)
		}
		if !d.Env.Room.Contains(c.Loc) {
			t.Errorf("candidate %v outside room", c.Loc)
		}
	}
}

func TestBestSelectors(t *testing.T) {
	cands := []Candidate{
		{Loc: geom.Pt(0, 0), Score: 1, SumDist: 10},
		{Loc: geom.Pt(1, 1), Score: 3, SumDist: 12},
		{Loc: geom.Pt(2, 2), Score: 2, SumDist: 5},
	}
	if b, ok := bestByScore(cands); !ok || b.Loc != geom.Pt(1, 1) {
		t.Errorf("bestByScore = %+v", b)
	}
	if b, ok := bestByShortestDistance(cands); !ok || b.Loc != geom.Pt(2, 2) {
		t.Errorf("bestByShortestDistance = %+v", b)
	}
	if _, ok := bestByScore(nil); ok {
		t.Error("empty candidates should report !ok")
	}
	if _, ok := bestByShortestDistance(nil); ok {
		t.Error("empty candidates should report !ok")
	}
}

func TestEntropyScoringPrefersPeakyDirectPath(t *testing.T) {
	// Synthetic check of Eq. 18's discrimination: two candidates with
	// equal peak value and distance, differing only in neighborhood
	// entropy — the peaky one must win.
	g := dsp.NewGrid(40, 40)
	// Diffuse blob at (10, 10).
	for dy := -3; dy <= 3; dy++ {
		for dx := -3; dx <= 3; dx++ {
			g.Set(10+dx, 10+dy, 1.0)
		}
	}
	// Sharp peak at (30, 30), same height.
	g.Set(30, 30, 1.0)
	for dy := -3; dy <= 3; dy++ {
		for dx := -3; dx <= 3; dx++ {
			if dx != 0 || dy != 0 {
				g.Set(30+dx, 30+dy, 0.05)
			}
		}
	}
	hFlat := g.PeakNegentropy(10, 10, 7, 1)
	hSharp := g.PeakNegentropy(30, 30, 7, 1)
	if hSharp <= hFlat {
		t.Fatalf("negentropy ordering wrong: sharp %v <= flat %v", hSharp, hFlat)
	}
}

func TestLocateCTEFreeSpace(t *testing.T) {
	// Clean room: the CTE estimator's bearings triangulate to the tag.
	env := testbed.CleanEnvironment(61)
	env.WallReflectivity = 0
	d, err := testbed.New(env, testbed.Config{Anchors: 4, Antennas: 4, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tag := geom.Pt(0.7, 0.9)
	per, err := d.CTESounding(tag, 18, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.LocateCTE(2.44e9, per)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Dist(tag) > 0.35 {
		t.Errorf("CTE free-space error %.3f m", res.Estimate.Dist(tag))
	}
}

func TestCTEInheritsAoAMultipathBlindness(t *testing.T) {
	// The research point of the extension: BLE 5.1's clean standardized
	// angle measurement does not rescue angle-only localization in the
	// multipath room; BLoc's joint estimate stays clearly ahead.
	d, err := testbed.Paper(62)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	tags := []geom.Point{
		geom.Pt(0.8, -1.1), geom.Pt(-1.6, 0.4), geom.Pt(1.7, 1.9),
		geom.Pt(-0.3, -2.1), geom.Pt(0.1, 0.9), geom.Pt(-2.0, 2.2),
	}
	var cteSum, blocSum float64
	for _, tag := range tags {
		per, err := d.CTESounding(tag, 18, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := e.LocateCTE(2.44e9, per)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := e.LocateOpts(d.Sounding(tag), LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cteSum += rc.Estimate.Dist(tag)
		blocSum += rb.Estimate.Dist(tag)
	}
	t.Logf("mean error: CTE %.3f m, BLoc %.3f m", cteSum/6, blocSum/6)
	if blocSum >= cteSum {
		t.Errorf("BLoc (%.2f) did not beat CTE direction finding (%.2f)", blocSum/6, cteSum/6)
	}
}

func TestLocateCTEValidation(t *testing.T) {
	d, err := testbed.Paper(63)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	if _, err := e.LocateCTE(2.44e9, make([][]complex128, 2)); err == nil {
		t.Error("anchor-count mismatch accepted")
	}
	bad := make([][]complex128, 4)
	for i := range bad {
		bad[i] = []complex128{1} // single antenna
	}
	if _, err := e.LocateCTE(2.44e9, bad); err == nil {
		t.Error("single-antenna CTE accepted")
	}
	if _, err := d.CTESounding(geom.Pt(0, 0), 99, 0); err == nil {
		t.Error("invalid channel accepted")
	}
}
