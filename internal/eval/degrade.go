package eval

import (
	"fmt"
	"math"
	"sort"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// ---------------------------------------------------------------------------
// Degradation-ladder ablation: the serving plane's ladder (DESIGN.md §16)
// inserts a fingerprint rung between the CSI grades and the RSSI-centroid
// floor, and that rung only earns its slot if it strictly beats the
// centroid on measured error — the invariant bloc-bench enforces. (On the
// simulated testbed the survey memorizes the deterministic multipath
// field, so the fingerprint rung can even rival CSI at the near-wall
// spots sampled here; on hardware, survey drift and device diversity push
// it well below CSI, which is why it ranks below both CSI rungs.) This ablation evaluates every rung on
// identical soundings at off-grid positions across the paper room: the
// CSI rungs run the real estimator (with and without a settled tracker
// prior), the fingerprint rungs run a KNN lookup against an offline
// rfsim site survey through the live median+EWMA filter (once with the
// full signature, once truncated to the 2-anchor partial-match floor),
// and the centroid rung is the seed's only degraded mode. The fleet's
// failover machinery is deliberately absent: per-rung estimator accuracy
// is a property of the estimators, and the chaos drill
// (`make chaos-degrade`) separately proves the ladder engages the rungs
// in order.

// DegradeRung is one measured rung of the ladder.
type DegradeRung struct {
	Name string
	Err  ErrorStats
}

// DegradeResult is the per-rung accuracy comparison.
type DegradeResult struct {
	Spots      int // evaluation positions
	Rounds     int // warmup rounds feeding the live-RSSI filter per spot
	GridPoints int // fingerprint survey size
	StepM      float64

	Rungs []DegradeRung // ladder order: gated, full, fingerprint, partial, centroid
}

// Rung returns the named rung's stats (zero value if absent).
func (r *DegradeResult) Rung(name string) ErrorStats {
	for _, g := range r.Rungs {
		if g.Name == name {
			return g.Err
		}
	}
	return ErrorStats{}
}

// Rung names, also used by the results assertions in bloc-bench.
const (
	RungGated       = "gated CSI (settled tracker prior)"
	RungFull        = "full CSI (quorum met)"
	RungFingerprint = "fingerprint KNN (full signature)"
	RungPartial     = "fingerprint KNN (2-anchor partial)"
	RungCentroid    = "RSSI centroid (pre-ladder floor)"
)

const (
	dgSpots  = 12
	dgRounds = 5 // live filter warmup per spot (median window default)
)

// dgSpot places evaluation positions deterministically off the survey
// grid: low-discrepancy fractional strides keep them spread over the
// room without a random source, and the 0.4 m inset keeps them inside
// the surveyed area.
func dgSpot(room geom.Rect, i int) geom.Point {
	inner := room.Inset(0.4)
	fx := math.Mod(0.37*float64(i)+0.13, 1)
	fy := math.Mod(0.71*float64(i)+0.29, 1)
	return geom.Pt(inner.Min.X+fx*inner.Width(), inner.Min.Y+fy*inner.Height())
}

// AblationDegrade measures localization error per ladder rung on the
// paper testbed.
func AblationDegrade(seed uint64) (*DegradeResult, error) {
	dep, err := testbed.Paper(seed)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return nil, err
	}
	anchors := len(dep.Anchors)
	// The offline survey: same fork-salt convention as bloc-dataset
	// -survey, so the ablation measures the artifact the tooling ships.
	db, err := fingerprint.Survey(dep.Env.Room, anchors,
		func(point, rep int, p geom.Point) *csi.Snapshot {
			return dep.Fork(0x5E0<<16 | uint64(point)<<4 | uint64(rep)).Sounding(p)
		}, fingerprint.SurveyOptions{})
	if err != nil {
		return nil, fmt.Errorf("degrade: survey: %w", err)
	}

	errsByRung := map[string][]float64{}
	record := func(rung string, p geom.Point, truth geom.Point) {
		errsByRung[rung] = append(errsByRung[rung], p.Dist(truth))
	}
	for i := 0; i < dgSpots; i++ {
		truth := dgSpot(dep.Env.Room, i)
		filt := fingerprint.NewFilter(anchors, fingerprint.FilterOptions{})
		var snap *csi.Snapshot
		// A short dwell at the spot warms the median+EWMA filter exactly
		// like a live tag's rounds would; the CSI rungs use the final
		// round's snapshot.
		for r := 0; r < dgRounds; r++ {
			snap = dep.Fork(uint64(i+1)<<32 | uint64(r+1)).Sounding(truth)
			filt.Observe(fingerprint.Signature(snap))
		}

		full, err := eng.LocateOpts(snap, core.LocateOptions{})
		if err != nil {
			return nil, fmt.Errorf("degrade: spot %d full CSI: %w", i, err)
		}
		record(RungFull, full.Estimate, truth)

		// A settled tracker: the prior ellipse a converged Kalman filter
		// would hand the gated search (gated ablation convention).
		prior := core.Prior{Center: full.Estimate, SemiMajor: 0.5, SemiMinor: 0.5}
		gated, err := eng.LocateOpts(snap, core.LocateOptions{Prior: &prior})
		if err != nil {
			return nil, fmt.Errorf("degrade: spot %d gated CSI: %w", i, err)
		}
		record(RungGated, gated.Estimate, truth)

		sig := filt.Signature()
		fp, err := db.Locate(sig)
		if err != nil {
			return nil, fmt.Errorf("degrade: spot %d fingerprint: %w", i, err)
		}
		record(RungFingerprint, fp, truth)

		// The partial-match floor: only two anchors heard the tag — below
		// the trilateration quorum, exactly the regime the fingerprint rung
		// exists to serve.
		part := append([]float64(nil), sig...)
		for a := 2; a < len(part); a++ {
			part[a] = math.NaN()
		}
		pp, err := db.Locate(part)
		if err != nil {
			return nil, fmt.Errorf("degrade: spot %d partial fingerprint: %w", i, err)
		}
		record(RungPartial, pp, truth)

		cent, err := eng.LocateRSSI(snap)
		if err != nil {
			return nil, fmt.Errorf("degrade: spot %d centroid: %w", i, err)
		}
		record(RungCentroid, cent.Estimate, truth)
	}

	res := &DegradeResult{
		Spots: dgSpots, Rounds: dgRounds,
		GridPoints: len(db.Points), StepM: db.StepM,
	}
	for _, name := range []string{RungGated, RungFull, RungFingerprint, RungPartial, RungCentroid} {
		errs := errsByRung[name]
		sort.Float64s(errs)
		res.Rungs = append(res.Rungs, DegradeRung{Name: name, Err: NewErrorStats(errs)})
	}
	return res, nil
}

// DegradeTable renders the per-rung comparison.
func DegradeTable(r *DegradeResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Ablation — degradation ladder (per-rung accuracy; %d spots × %d rounds, "+
			"%d-point survey @ %.2g m pitch)", r.Spots, r.Rounds, r.GridPoints, r.StepM),
		Columns: []string{"rung", "median (cm)", "p90 (cm)", "mean (cm)"},
	}
	for _, g := range r.Rungs {
		t.AddRow(g.Name, Cm(g.Err.Median), Cm(g.Err.P90), Cm(g.Err.Mean))
	}
	fpMed := r.Rung(RungFingerprint).Median
	ctMed := r.Rung(RungCentroid).Median
	if fpMed > 0 && ctMed > 0 {
		t.AddRow("fingerprint / centroid median ratio",
			fmt.Sprintf("%.2f", fpMed/ctMed), "", "")
	}
	return t
}
