package eval

import (
	"fmt"
	"math"
	"math/cmplx"

	"bloc/internal/ble"
	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/dsp"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// ---------------------------------------------------------------------------
// Fig. 9a — Localization accuracy: BLoc vs AoA-combining CDFs.

// Fig9aResult holds the headline comparison of §8.2.
type Fig9aResult struct {
	BLoc, AoA       ErrorStats
	BLocCDF, AoACDF []dsp.CDFPoint
}

// Fig9a localizes every dataset position with both schemes.
func (s *Suite) Fig9a() (*Fig9aResult, error) {
	be, err := s.Errors(s.Eng, EstimatorBLoc, nil)
	if err != nil {
		return nil, err
	}
	ae, err := s.Errors(s.Eng, EstimatorAoA, nil)
	if err != nil {
		return nil, err
	}
	return &Fig9aResult{
		BLoc: NewErrorStats(be), AoA: NewErrorStats(ae),
		BLocCDF: CDF(be), AoACDF: CDF(ae),
	}, nil
}

// Table renders the Fig. 9a summary.
func (r *Fig9aResult) Table() *Table {
	t := &Table{
		Title:   "Fig 9a — Localization accuracy (paper: BLoc 86/170 cm, AoA 242/340 cm)",
		Columns: []string{"scheme", "median (cm)", "p90 (cm)"},
	}
	t.AddRow("BLoc", Cm(r.BLoc.Median), Cm(r.BLoc.P90))
	t.AddRow("AoA-baseline", Cm(r.AoA.Median), Cm(r.AoA.P90))
	return t
}

// ---------------------------------------------------------------------------
// Fig. 9b — Effect of the number of anchors.

// Fig9bResult maps anchor count → stats per scheme. Anchor subsets always
// retain the master (anchor 0): the correction term is defined relative to
// the master's transmissions, so subsets without it would be a different
// deployment, not a subset of this one. Errors are pooled over all subsets
// of each size, matching the paper's "average of those errors".
type Fig9bResult struct {
	Counts []int
	BLoc   map[int]ErrorStats
	AoA    map[int]ErrorStats
	// CDFs per count for plotting the full Fig. 9b curves.
	BLocCDF map[int][]dsp.CDFPoint
	AoACDF  map[int][]dsp.CDFPoint
}

// anchorSubsets returns all subsets of {0..total-1} of the given size that
// contain 0, preserving ascending order.
func anchorSubsets(total, size int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == size {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < total; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(1, []int{0})
	return out
}

// Fig9b sweeps the anchor count over {2, 3, 4}.
func (s *Suite) Fig9b() (*Fig9bResult, error) {
	res := &Fig9bResult{
		Counts:  []int{2, 3, 4},
		BLoc:    map[int]ErrorStats{},
		AoA:     map[int]ErrorStats{},
		BLocCDF: map[int][]dsp.CDFPoint{},
		AoACDF:  map[int][]dsp.CDFPoint{},
	}
	total := len(s.Dep.Anchors)
	for _, count := range res.Counts {
		var blocAll, aoaAll []float64
		for _, subset := range anchorSubsets(total, count) {
			anchors := make([]geom.Array, len(subset))
			for ni, i := range subset {
				anchors[ni] = s.Dep.Anchors[i]
			}
			eng, err := core.NewEngine(anchors, core.DefaultConfig(s.Dep.Env.Room))
			if err != nil {
				return nil, err
			}
			sub := subset
			prep := func(snap *csi.Snapshot) (*csi.Snapshot, error) {
				return snap.SelectAnchors(sub)
			}
			be, err := s.Errors(eng, EstimatorBLoc, prep)
			if err != nil {
				return nil, fmt.Errorf("fig9b bloc subset %v: %w", subset, err)
			}
			ae, err := s.Errors(eng, EstimatorAoA, prep)
			if err != nil {
				return nil, fmt.Errorf("fig9b aoa subset %v: %w", subset, err)
			}
			blocAll = append(blocAll, be...)
			aoaAll = append(aoaAll, ae...)
		}
		res.BLoc[count] = NewErrorStats(blocAll)
		res.AoA[count] = NewErrorStats(aoaAll)
		res.BLocCDF[count] = CDF(blocAll)
		res.AoACDF[count] = CDF(aoaAll)
	}
	return res, nil
}

// Table renders the Fig. 9b summary.
func (r *Fig9bResult) Table() *Table {
	t := &Table{
		Title:   "Fig 9b — Effect of number of anchors (paper: BLoc 86→91.5 cm, AoA 242→247 cm for 4→3)",
		Columns: []string{"anchors", "BLoc median (cm)", "BLoc p90 (cm)", "AoA median (cm)", "AoA p90 (cm)"},
	}
	for _, c := range r.Counts {
		t.AddRow(fmt.Sprint(c), Cm(r.BLoc[c].Median), Cm(r.BLoc[c].P90),
			Cm(r.AoA[c].Median), Cm(r.AoA[c].P90))
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 9c — Effect of the number of antennas.

// Fig9cResult maps antenna count → stats per scheme.
type Fig9cResult struct {
	Counts []int
	BLoc   map[int]ErrorStats
	AoA    map[int]ErrorStats
}

// Fig9c sweeps the per-anchor antenna count over {3, 4} with all anchors.
func (s *Suite) Fig9c() (*Fig9cResult, error) {
	res := &Fig9cResult{Counts: []int{3, 4}, BLoc: map[int]ErrorStats{}, AoA: map[int]ErrorStats{}}
	for _, count := range res.Counts {
		anchors := make([]geom.Array, len(s.Dep.Anchors))
		for i, a := range s.Dep.Anchors {
			anchors[i] = a.WithN(count)
		}
		eng, err := core.NewEngine(anchors, core.DefaultConfig(s.Dep.Env.Room))
		if err != nil {
			return nil, err
		}
		n := count
		prep := func(snap *csi.Snapshot) (*csi.Snapshot, error) {
			return snap.SelectAntennas(n)
		}
		be, err := s.Errors(eng, EstimatorBLoc, prep)
		if err != nil {
			return nil, err
		}
		ae, err := s.Errors(eng, EstimatorAoA, prep)
		if err != nil {
			return nil, err
		}
		res.BLoc[count] = NewErrorStats(be)
		res.AoA[count] = NewErrorStats(ae)
	}
	return res, nil
}

// Table renders the Fig. 9c summary.
func (r *Fig9cResult) Table() *Table {
	t := &Table{
		Title:   "Fig 9c — Effect of number of antennas (paper: BLoc 90 cm @3, AoA 241 cm @3)",
		Columns: []string{"antennas", "BLoc median (cm)", "AoA median (cm)"},
	}
	for _, c := range r.Counts {
		t.AddRow(fmt.Sprint(c), Cm(r.BLoc[c].Median), Cm(r.AoA[c].Median))
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 10 — Bandwidth variation.

// Fig10Result maps stitched bandwidth (MHz) → BLoc stats.
type Fig10Result struct {
	BandwidthsMHz []float64
	Stats         map[float64]ErrorStats
}

// bandIndicesForBandwidth returns a centered contiguous run of band
// indices spanning approximately the requested bandwidth. 2 MHz → one
// band, 80 MHz → all bands.
func bandIndicesForBandwidth(totalBands int, mhz float64) []int {
	n := int(math.Round(mhz / 2))
	if n < 1 {
		n = 1
	}
	if n > totalBands {
		n = totalBands
	}
	start := (totalBands - n) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = start + i
	}
	return idx
}

// Fig10 sweeps the stitched bandwidth over {2, 20, 40, 80} MHz.
func (s *Suite) Fig10() (*Fig10Result, error) {
	res := &Fig10Result{
		BandwidthsMHz: []float64{2, 20, 40, 80},
		Stats:         map[float64]ErrorStats{},
	}
	totalBands := len(s.DS.Snapshots[0].Bands)
	for _, bw := range res.BandwidthsMHz {
		idx := bandIndicesForBandwidth(totalBands, bw)
		prep := func(snap *csi.Snapshot) (*csi.Snapshot, error) {
			return snap.SelectBands(idx)
		}
		be, err := s.Errors(s.Eng, EstimatorBLoc, prep)
		if err != nil {
			return nil, fmt.Errorf("fig10 bw=%v: %w", bw, err)
		}
		res.Stats[bw] = NewErrorStats(be)
	}
	return res, nil
}

// Table renders the Fig. 10 summary.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		Title:   "Fig 10 — Effect of bandwidth (paper medians: 160, 134, 110, 86 cm)",
		Columns: []string{"bandwidth (MHz)", "median (cm)", "stddev (cm)"},
	}
	for _, bw := range r.BandwidthsMHz {
		st := r.Stats[bw]
		t.AddRow(fmt.Sprintf("%.0f", bw), Cm(st.Median), Cm(st.Stddev))
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 11 — Interference avoidance (subband subsampling).

// Fig11Result maps the number of used subbands → BLoc stats. The full
// 80 MHz span is kept; only intermediate channels are dropped (stride
// subsampling), so resolution is preserved and only aliasing/SNR change —
// the paper's point in §8.6.
type Fig11Result struct {
	SubbandCounts []int
	Stats         map[int]ErrorStats
}

// Fig11 subsamples the channel list by strides {1, 2, 4}.
func (s *Suite) Fig11() (*Fig11Result, error) {
	res := &Fig11Result{Stats: map[int]ErrorStats{}}
	totalBands := len(s.DS.Snapshots[0].Bands)
	for _, stride := range []int{1, 2, 4} {
		var idx []int
		for i := 0; i < totalBands; i += stride {
			idx = append(idx, i)
		}
		prep := func(snap *csi.Snapshot) (*csi.Snapshot, error) {
			return snap.SelectBands(idx)
		}
		be, err := s.Errors(s.Eng, EstimatorBLoc, prep)
		if err != nil {
			return nil, fmt.Errorf("fig11 stride=%d: %w", stride, err)
		}
		res.SubbandCounts = append(res.SubbandCounts, len(idx))
		res.Stats[len(idx)] = NewErrorStats(be)
	}
	return res, nil
}

// Table renders the Fig. 11 summary.
func (r *Fig11Result) Table() *Table {
	t := &Table{
		Title:   "Fig 11 — Interference avoidance: subband subsampling over the full span (paper: ≈flat)",
		Columns: []string{"subbands", "median (cm)"},
	}
	for _, n := range r.SubbandCounts {
		t.AddRow(fmt.Sprint(n), Cm(r.Stats[n].Median))
	}
	return t
}

// ---------------------------------------------------------------------------
// Fig. 12 — Multipath rejection ablation.

// Fig12Result compares BLoc's Eq. 18 selector against the naive
// shortest-distance selector on the same likelihoods.
type Fig12Result struct {
	BLoc, Shortest       ErrorStats
	BLocCDF, ShortestCDF []dsp.CDFPoint
}

// Fig12 runs the §8.7 ablation.
func (s *Suite) Fig12() (*Fig12Result, error) {
	be, err := s.Errors(s.Eng, EstimatorBLoc, nil)
	if err != nil {
		return nil, err
	}
	se, err := s.Errors(s.Eng, EstimatorShortestDistance, nil)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{
		BLoc: NewErrorStats(be), Shortest: NewErrorStats(se),
		BLocCDF: CDF(be), ShortestCDF: CDF(se),
	}, nil
}

// Table renders the Fig. 12 summary.
func (r *Fig12Result) Table() *Table {
	t := &Table{
		Title:   "Fig 12 — Multipath rejection (paper: BLoc 86/178 cm, shortest-distance 195/331 cm)",
		Columns: []string{"selector", "median (cm)", "p90 (cm)"},
	}
	t.AddRow("BLoc (Eq. 18)", Cm(r.BLoc.Median), Cm(r.BLoc.P90))
	t.AddRow("shortest-distance", Cm(r.Shortest.Median), Cm(r.Shortest.P90))
	return t
}

// ---------------------------------------------------------------------------
// Fig. 13 — Accuracy vs location heatmap.

// Fig13Result is the per-cell RMSE map of §8.8.
type Fig13Result struct {
	CellM float64
	Grid  *dsp.Grid // RMSE per cell; cells with no samples hold NaN
	Room  geom.Rect
}

// Fig13 bins per-position BLoc errors into coarse cells and reports the
// RMSE per cell.
func (s *Suite) Fig13(cellM float64) (*Fig13Result, error) {
	if cellM <= 0 {
		cellM = 0.5
	}
	be, err := s.Errors(s.Eng, EstimatorBLoc, nil)
	if err != nil {
		return nil, err
	}
	room := s.Dep.Env.Room
	nx := int(math.Ceil(room.Width()/cellM)) + 1
	ny := int(math.Ceil(room.Height()/cellM)) + 1
	sum := dsp.NewGrid(nx, ny)
	count := dsp.NewGrid(nx, ny)
	for i, p := range s.DS.Truth {
		ix := int((p.X - room.Min.X) / cellM)
		iy := int((p.Y - room.Min.Y) / cellM)
		if ix < 0 || ix >= nx || iy < 0 || iy >= ny {
			continue
		}
		sum.Add(ix, iy, be[i]*be[i])
		count.Add(ix, iy, 1)
	}
	rmse := dsp.NewGrid(nx, ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			c := count.At(ix, iy)
			//lint:ignore floateq the count grid holds exact integers
			if c == 0 {
				rmse.Set(ix, iy, math.NaN())
				continue
			}
			rmse.Set(ix, iy, math.Sqrt(sum.At(ix, iy)/c))
		}
	}
	return &Fig13Result{CellM: cellM, Grid: rmse, Room: room}, nil
}

// CornerVsCenter reports the mean cell RMSE in the room's corner quarter-
// cells versus the central region, the qualitative observation of §8.8
// ("errors particularly high in the corner locations").
func (r *Fig13Result) CornerVsCenter() (corner, center float64) {
	var cs, cn, ms, mn float64
	for iy := 0; iy < r.Grid.H; iy++ {
		for ix := 0; ix < r.Grid.W; ix++ {
			v := r.Grid.At(ix, iy)
			if math.IsNaN(v) {
				continue
			}
			edgeX := ix <= r.Grid.W/4 || ix >= r.Grid.W*3/4
			edgeY := iy <= r.Grid.H/4 || iy >= r.Grid.H*3/4
			if edgeX && edgeY {
				cs += v
				cn++
			} else if !edgeX && !edgeY {
				ms += v
				mn++
			}
		}
	}
	if cn > 0 {
		corner = cs / cn
	}
	if mn > 0 {
		center = ms / mn
	}
	return corner, center
}

// ---------------------------------------------------------------------------
// Fig. 8a — CSI measurement stability across consecutive acquisitions.

// Fig8aResult records corrected-CSI phases for repeated measurements on a
// few subbands.
type Fig8aResult struct {
	BandIndices []int
	// Phases[m][b] is the corrected phase of measurement m on
	// BandIndices[b] (anchor 1, antenna 0), degrees.
	Phases [][]float64
	// MaxSpreadDeg is the worst per-band spread across measurements.
	MaxSpreadDeg float64
}

// Fig8a repeats the acquisition n times at one position and records the
// corrected phases on the paper's illustrative subbands {6, 16, 26, 36}
// (clamped to the available band count).
func (s *Suite) Fig8a(tag geom.Point, n int) (*Fig8aResult, error) {
	if n <= 0 {
		n = 10
	}
	bandIdx := []int{6, 16, 26, 36}
	total := len(s.Dep.Bands)
	for i, b := range bandIdx {
		if b >= total {
			bandIdx[i] = total - 1
		}
	}
	res := &Fig8aResult{BandIndices: bandIdx}
	for m := 0; m < n; m++ {
		snap := s.Dep.Fork(uint64(1000 + m)).Sounding(tag)
		a, err := core.Correct(snap)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(bandIdx))
		for bi, b := range bandIdx {
			row[bi] = geom.Deg(cmplx.Phase(a.Values[b][1][0]))
		}
		res.Phases = append(res.Phases, row)
	}
	for bi := range bandIdx {
		var lo, hi float64 = math.Inf(1), math.Inf(-1)
		for m := range res.Phases {
			v := res.Phases[m][bi]
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		res.MaxSpreadDeg = math.Max(res.MaxSpreadDeg, hi-lo)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 8b — Phase across subbands, with and without offset correction.

// Fig8bResult compares the unwrapped phase-vs-frequency profiles.
type Fig8bResult struct {
	Freqs         []float64
	RawDeg        []float64 // without phase correction (garbled)
	CorrectedDeg  []float64 // BLoc's corrected channels
	RawR2, CorrR2 float64   // linearity of each profile
}

// Fig8b builds the clean-room two-anchor LOS microbenchmark.
func Fig8b(seed uint64, tag geom.Point) (*Fig8bResult, error) {
	env := testbed.CleanEnvironment(seed)
	dep, err := testbed.New(env, testbed.Config{Anchors: 2, Antennas: 4, Seed: seed})
	if err != nil {
		return nil, err
	}
	snap := dep.Sounding(tag)
	a, err := core.Correct(snap)
	if err != nil {
		return nil, err
	}
	K := a.NumBands()
	res := &Fig8bResult{Freqs: snap.Freqs}
	raw := make([]float64, K)
	cor := make([]float64, K)
	for k := 0; k < K; k++ {
		raw[k] = cmplx.Phase(snap.Tag[k][1][0])
		cor[k] = cmplx.Phase(a.Values[k][1][0])
	}
	rawU := dsp.Unwrap(raw)
	corU := dsp.Unwrap(cor)
	res.RawDeg = make([]float64, K)
	res.CorrectedDeg = make([]float64, K)
	for k := 0; k < K; k++ {
		res.RawDeg[k] = geom.Deg(rawU[k])
		res.CorrectedDeg[k] = geom.Deg(corU[k])
	}
	_, _, res.RawR2 = dsp.LinearFit(res.Freqs, rawU)
	_, _, res.CorrR2 = dsp.LinearFit(res.Freqs, corU)
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 6 / Fig. 8c — Likelihood maps over space.

// Fig6Result carries the three likelihood views of Fig. 6 plus the tag's
// true position and BLoc's prediction (Fig. 8c).
type Fig6Result struct {
	Tag      geom.Point
	Estimate geom.Point
	Angle    *dsp.Grid // Eq. 15 painted over XY (one anchor)
	Distance *dsp.Grid // Eq. 16 painted over XY (one anchor, hyperbolic)
	Combined *dsp.Grid // Eq. 17 summed over anchors
}

// Fig6 computes the likelihood views for one tag position in the paper
// room. Anchor 1 (a slave) illustrates the angle and distance components.
func (s *Suite) Fig6(tag geom.Point) (*Fig6Result, error) {
	snap := s.Dep.Fork(0xF16).Sounding(tag)
	a, err := core.Correct(snap)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Tag: tag}
	res.Angle = s.Eng.AngleLikelihoodXY(a, 1)
	res.Distance = s.Eng.DistanceLikelihoodXY(a, 1)
	loc, err := s.Eng.LocateOpts(snap, core.LocateOptions{})
	if err != nil {
		return nil, err
	}
	res.Estimate = loc.Estimate
	if res.Combined, _, err = s.Eng.Likelihood(a); err != nil {
		return nil, err
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 4 — GFSK filtered bits.

// Fig4Result holds the two shaped waveforms of Fig. 4.
type Fig4Result struct {
	SPS            int
	RandomBits     []byte
	RandomShaped   []float64
	SoundingBits   []byte
	SoundingShaped []float64
}

// Fig4 shapes a random bit pattern (Fig. 4a: never settles) and a
// run-length sounding pattern (Fig. 4b: settles at ±1).
func Fig4(sps int) *Fig4Result {
	if sps <= 0 {
		sps = 8
	}
	random := []byte{0, 1, 1, 0, 1, 0, 0, 1, 0, 1}
	sounding := []byte{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	return &Fig4Result{
		SPS:            sps,
		RandomBits:     random,
		RandomShaped:   dsp.ShapeBits(random, ble.GaussianBT, sps, 3),
		SoundingBits:   sounding,
		SoundingShaped: dsp.ShapeBits(sounding, ble.GaussianBT, sps, 3),
	}
}
