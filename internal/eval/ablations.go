package eval

import (
	"fmt"
	"math/rand/v2"

	"bloc/internal/ble"
	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/rfsim"
	"bloc/internal/testbed"
	"bloc/internal/wifi"
)

// Ablations beyond the paper's own figures (DESIGN.md §6): they decompose
// the design choices the paper calls out — the Eq. 18 score terms, its
// weights, the SNR operating range, the hop-increment invariance argument
// of §2.1 and robustness to increasingly obstructed direct paths.

// ---------------------------------------------------------------------------
// Score decomposition: which term of s_x = p_x·e^{bH − aΣd} does the work?

// ScoreVariant names one configuration of the Eq. 18 selector.
type ScoreVariant struct {
	Name   string
	A, B   float64
	UseSD  bool // use the shortest-distance selector instead of the score
	Median float64
	P90    float64
}

// AblationScore evaluates the full score, each term alone, and the naive
// shortest-distance selector on the shared dataset.
func (s *Suite) AblationScore() ([]ScoreVariant, error) {
	base := core.DefaultConfig(s.Dep.Env.Room)
	variants := []ScoreVariant{
		{Name: "full score (a=0.1, b=0.05)", A: base.ScoreA, B: base.ScoreB},
		{Name: "no entropy (b=0)", A: base.ScoreA, B: 0},
		{Name: "no distance (a=0)", A: 0, B: base.ScoreB},
		{Name: "peak value only (a=b=0)", A: 0, B: 0},
		{Name: "shortest distance selector", UseSD: true},
	}
	for vi := range variants {
		v := &variants[vi]
		cfg := base
		if !v.UseSD {
			cfg.ScoreA, cfg.ScoreB = v.A, v.B
		}
		eng, err := core.NewEngine(s.Dep.Anchors, cfg)
		if err != nil {
			return nil, err
		}
		est := EstimatorBLoc
		if v.UseSD {
			est = EstimatorShortestDistance
		}
		errs, err := s.Errors(eng, est, nil)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.Name, err)
		}
		st := NewErrorStats(errs)
		v.Median, v.P90 = st.Median, st.P90
	}
	return variants, nil
}

// ScoreTable renders the decomposition.
func ScoreTable(vs []ScoreVariant) *Table {
	t := &Table{
		Title:   "Ablation — Eq. 18 score decomposition",
		Columns: []string{"selector", "median (cm)", "p90 (cm)"},
	}
	for _, v := range vs {
		t.AddRow(v.Name, Cm(v.Median), Cm(v.P90))
	}
	return t
}

// ---------------------------------------------------------------------------
// Baseline panel: every estimator in the repository on the same dataset.

// BaselineResult names one estimator's stats.
type BaselineResult struct {
	Name  string
	Stats ErrorStats
}

// AblationBaselines runs BLoc and all five comparison estimators —
// including the MUSIC super-resolution and soft-voting AoA variants that
// go beyond the paper's single baseline — over the shared dataset.
func (s *Suite) AblationBaselines() ([]BaselineResult, error) {
	panel := []struct {
		name string
		est  Estimator
	}{
		{"BLoc (full pipeline)", EstimatorBLoc},
		{"AoA-combining (paper baseline)", EstimatorAoA},
		{"AoA soft grid voting", EstimatorAoASoft},
		{"MUSIC bearings", EstimatorMUSIC},
		{"shortest-distance selector", EstimatorShortestDistance},
		{"RSSI trilateration", EstimatorRSSI},
	}
	out := make([]BaselineResult, 0, len(panel))
	for _, p := range panel {
		errs, err := s.Errors(s.Eng, p.est, nil)
		if err != nil {
			return nil, fmt.Errorf("baseline %q: %w", p.name, err)
		}
		out = append(out, BaselineResult{Name: p.name, Stats: NewErrorStats(errs)})
	}
	return out, nil
}

// BaselinesTable renders the panel.
func BaselinesTable(rs []BaselineResult) *Table {
	t := &Table{
		Title:   "Ablation — estimator panel (shared dataset)",
		Columns: []string{"estimator", "median (cm)", "p90 (cm)"},
	}
	for _, r := range rs {
		t.AddRow(r.Name, Cm(r.Stats.Median), Cm(r.Stats.P90))
	}
	return t
}

// ---------------------------------------------------------------------------
// Quorum degradation: the fault-tolerant acquisition plane completes
// rounds from partial snapshots (anchors silenced, bands lost), so this
// ablation measures what each level of degradation costs in accuracy —
// the table that justifies the server's MinAnchors/MinBands defaults.

// QuorumPoint is one degradation scenario.
type QuorumPoint struct {
	Name    string
	Anchors int // anchors still contributing rows
	Stats   ErrorStats
}

// AblationQuorum evaluates BLoc on the shared dataset under the partial
// snapshots the locserver produces in degraded mode: the last n anchors
// silenced for n in 0..N−2 (the estimator's floor is two anchors), and a
// deterministic fraction of (band, anchor) rows masked — master rows
// included, which invalidates the whole band for everyone, exactly like a
// dropped master report.
func (s *Suite) AblationQuorum() ([]QuorumPoint, error) {
	N := len(s.Dep.Anchors)
	type scenario struct {
		name    string
		anchors int
		prep    func(*csi.Snapshot) (*csi.Snapshot, error)
	}
	scenarios := []scenario{{name: "all anchors, all bands", anchors: N}}
	for n := 1; n <= N-2; n++ {
		n := n
		scenarios = append(scenarios, scenario{
			name:    fmt.Sprintf("%d anchor(s) silenced", n),
			anchors: N - n,
			prep: func(snap *csi.Snapshot) (*csi.Snapshot, error) {
				m := snap.MaskedCopy()
				for k := range m.Bands {
					for i := N - n; i < N; i++ {
						m.MaskMissing(k, i)
					}
				}
				return m, nil
			},
		})
	}
	for _, pct := range []int{5, 15, 30} {
		pct := pct
		scenarios = append(scenarios, scenario{
			name:    fmt.Sprintf("%d%% of rows lost", pct),
			anchors: N,
			prep: func(snap *csi.Snapshot) (*csi.Snapshot, error) {
				m := snap.MaskedCopy()
				for k := range m.Bands {
					for i := 0; i < N; i++ {
						if (k*31+i*17+pct*7)%100 < pct {
							m.MaskMissing(k, i)
						}
					}
				}
				return m, nil
			},
		})
	}
	out := make([]QuorumPoint, 0, len(scenarios))
	for _, sc := range scenarios {
		errs, err := s.Errors(s.Eng, EstimatorBLoc, sc.prep)
		if err != nil {
			return nil, fmt.Errorf("quorum %q: %w", sc.name, err)
		}
		out = append(out, QuorumPoint{Name: sc.name, Anchors: sc.anchors, Stats: NewErrorStats(errs)})
	}
	return out, nil
}

// QuorumTable renders the degradation ladder.
func QuorumTable(ps []QuorumPoint) *Table {
	t := &Table{
		Title:   "Ablation — partial-snapshot degradation (quorum localization)",
		Columns: []string{"scenario", "anchors", "median (cm)", "p90 (cm)"},
	}
	for _, p := range ps {
		t.AddRow(p.Name, fmt.Sprint(p.Anchors), Cm(p.Stats.Median), Cm(p.Stats.P90))
	}
	return t
}

// ---------------------------------------------------------------------------
// Weight sensitivity around the paper's a = 0.1, b = 0.05.

// WeightPoint is one (a, b) evaluation.
type WeightPoint struct {
	A, B   float64
	Median float64
}

// AblationWeights sweeps the score weights on the shared dataset.
func (s *Suite) AblationWeights(as, bs []float64) ([]WeightPoint, error) {
	base := core.DefaultConfig(s.Dep.Env.Room)
	var out []WeightPoint
	for _, a := range as {
		for _, b := range bs {
			cfg := base
			cfg.ScoreA, cfg.ScoreB = a, b
			eng, err := core.NewEngine(s.Dep.Anchors, cfg)
			if err != nil {
				return nil, err
			}
			errs, err := s.Errors(eng, EstimatorBLoc, nil)
			if err != nil {
				return nil, fmt.Errorf("weights a=%v b=%v: %w", a, b, err)
			}
			out = append(out, WeightPoint{A: a, B: b, Median: NewErrorStats(errs).Median})
		}
	}
	return out, nil
}

// WeightsTable renders the sweep.
func WeightsTable(ps []WeightPoint) *Table {
	t := &Table{
		Title:   "Ablation — score weight sensitivity (paper uses a=0.1, b=0.05)",
		Columns: []string{"a", "b", "median (cm)"},
	}
	for _, p := range ps {
		t.AddRow(fmt.Sprintf("%.2f", p.A), fmt.Sprintf("%.2f", p.B), Cm(p.Median))
	}
	return t
}

// ---------------------------------------------------------------------------
// SNR sweep: the corrected channel multiplies three noisy estimates.

// SNRPoint is one SNR evaluation.
type SNRPoint struct {
	SNRdB float64
	BLoc  ErrorStats
	AoA   ErrorStats
}

// AblationSNR re-acquires a dataset per SNR level and evaluates both
// schemes (this cannot reuse the shared dataset: noise is baked in at
// acquisition).
func AblationSNR(seed uint64, positions int, snrs []float64) ([]SNRPoint, error) {
	out := make([]SNRPoint, 0, len(snrs))
	for _, snr := range snrs {
		cfg := testbed.PaperConfig(seed)
		cfg.SNRdB = snr
		dep, err := testbed.New(testbed.PaperEnvironment(seed), cfg)
		if err != nil {
			return nil, err
		}
		s, err := NewSuite(SuiteOptions{Seed: seed, Positions: positions, Deployment: dep})
		if err != nil {
			return nil, err
		}
		r, err := s.Fig9a()
		if err != nil {
			return nil, fmt.Errorf("snr %v: %w", snr, err)
		}
		out = append(out, SNRPoint{SNRdB: snr, BLoc: r.BLoc, AoA: r.AoA})
	}
	return out, nil
}

// SNRTable renders the sweep.
func SNRTable(ps []SNRPoint) *Table {
	t := &Table{
		Title:   "Ablation — CSI SNR sweep (referenced at 3 m)",
		Columns: []string{"SNR (dB)", "BLoc median (cm)", "AoA median (cm)"},
	}
	for _, p := range ps {
		t.AddRow(fmt.Sprintf("%.0f", p.SNRdB), Cm(p.BLoc.Median), Cm(p.AoA.Median))
	}
	return t
}

// ---------------------------------------------------------------------------
// Hop-increment invariance (§2.1): since 37 is prime, every f_hop visits
// all bands, so localization must not depend on the hop increment — only
// the order of measurement changes.

// AblationHopInvariance measures one tag with the band list permuted by
// several hop increments and returns the spread of the resulting
// estimates (meters). The snapshots differ (fresh LO draws per
// acquisition), so a small spread — comparable to repeated measurements
// with the same order — is the pass criterion; the caller compares
// against the baseline spread it returns.
func AblationHopInvariance(seed uint64, tag geom.Point, hops []int) (permuted, repeated []geom.Point, err error) {
	mkDep := func(order []ble.ChannelIndex) (*testbed.Deployment, error) {
		dep, err := testbed.Paper(seed)
		if err != nil {
			return nil, err
		}
		if order != nil {
			dep.Bands = order
		}
		return dep, nil
	}
	locate := func(dep *testbed.Deployment, salt uint64) (geom.Point, error) {
		eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
		if err != nil {
			return geom.Point{}, err
		}
		res, err := eng.LocateOpts(dep.Fork(salt).Sounding(tag), core.LocateOptions{})
		if err != nil {
			return geom.Point{}, err
		}
		return res.Estimate, nil
	}
	for _, hop := range hops {
		seq, err := ble.NewHopSequence(0, hop)
		if err != nil {
			return nil, nil, err
		}
		dep, err := mkDep(seq.Cycle(ble.NumDataChannels))
		if err != nil {
			return nil, nil, err
		}
		p, err := locate(dep, uint64(hop))
		if err != nil {
			return nil, nil, err
		}
		permuted = append(permuted, p)
	}
	// Baseline: same band order, repeated acquisitions.
	dep, err := mkDep(nil)
	if err != nil {
		return nil, nil, err
	}
	for i := range hops {
		p, err := locate(dep, uint64(100+i))
		if err != nil {
			return nil, nil, err
		}
		repeated = append(repeated, p)
	}
	return permuted, repeated, nil
}

// Spread returns the maximum pairwise distance within a point set.
func Spread(pts []geom.Point) float64 {
	var worst float64
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// ---------------------------------------------------------------------------
// NLOS sweep: progressively obstruct the direct paths.

// NLOSPoint is one obstruction evaluation.
type NLOSPoint struct {
	Attenuation float64 // amplitude factor of the added clutter
	BLoc        ErrorStats
	AoA         ErrorStats
}

// AblationNLOS adds a large cross of desk-height clutter through the room
// center with varying attenuation and evaluates both schemes.
func AblationNLOS(seed uint64, positions int, attens []float64) ([]NLOSPoint, error) {
	out := make([]NLOSPoint, 0, len(attens))
	for _, att := range attens {
		env := testbed.PaperEnvironment(seed)
		if att < 1 {
			for _, seg := range []geom.Segment{
				geom.Seg(geom.Pt(-1.8, -1.5), geom.Pt(1.8, 1.5)),
				geom.Seg(geom.Pt(-1.8, 1.5), geom.Pt(1.8, -1.5)),
			} {
				if err := env.AddObstacle(rfsim.Obstacle{
					Wall: seg, Attenuation: att, TagHeightOnly: true,
				}); err != nil {
					return nil, err
				}
			}
		}
		dep, err := testbed.New(env, testbed.PaperConfig(seed))
		if err != nil {
			return nil, err
		}
		s, err := NewSuite(SuiteOptions{Seed: seed, Positions: positions, Deployment: dep})
		if err != nil {
			return nil, err
		}
		r, err := s.Fig9a()
		if err != nil {
			return nil, fmt.Errorf("nlos %v: %w", att, err)
		}
		out = append(out, NLOSPoint{Attenuation: att, BLoc: r.BLoc, AoA: r.AoA})
	}
	return out, nil
}

// NLOSTable renders the sweep.
func NLOSTable(ps []NLOSPoint) *Table {
	t := &Table{
		Title:   "Ablation — added NLOS clutter (amplitude attenuation of extra central obstacles)",
		Columns: []string{"attenuation", "BLoc median (cm)", "AoA median (cm)"},
	}
	for _, p := range ps {
		label := fmt.Sprintf("%.2f", p.Attenuation)
		if p.Attenuation >= 1 {
			label = "none"
		}
		t.AddRow(label, Cm(p.BLoc.Median), Cm(p.AoA.Median))
	}
	return t
}

// ---------------------------------------------------------------------------
// Wi-Fi interference and adaptive frequency hopping — the mechanism
// behind §8.6's blacklisting story.

// InterferencePoint is one coexistence scenario.
type InterferencePoint struct {
	Name     string
	Channels int // BLE channels used for localization
	BLoc     ErrorStats
}

// AblationInterference evaluates three coexistence scenarios: a quiet
// band, a 20 MHz Wi-Fi interferer with BLE ignoring it, and the same
// interferer with the channel map adapted by energy detection (AFH).
func AblationInterference(seed uint64, positions int, wifiChannel int, sigma float64) ([]InterferencePoint, error) {
	wifi, err := testbed.WiFiChannel(wifiChannel, sigma)
	if err != nil {
		return nil, err
	}
	type scenario struct {
		name string
		prep func(*testbed.Deployment)
	}
	scenarios := []scenario{
		{"quiet band", func(d *testbed.Deployment) {}},
		{"Wi-Fi, no AFH", func(d *testbed.Deployment) {
			d.Interferers = []testbed.Interferer{wifi}
		}},
		{"Wi-Fi + AFH blacklist", func(d *testbed.Deployment) {
			d.Interferers = []testbed.Interferer{wifi}
			d.Bands = d.DetectInterference(8, 3)
		}},
	}
	out := make([]InterferencePoint, 0, len(scenarios))
	for _, sc := range scenarios {
		dep, err := testbed.Paper(seed)
		if err != nil {
			return nil, err
		}
		sc.prep(dep)
		s, err := NewSuite(SuiteOptions{Seed: seed, Positions: positions, Deployment: dep})
		if err != nil {
			return nil, err
		}
		errs, err := s.Errors(s.Eng, EstimatorBLoc, nil)
		if err != nil {
			return nil, fmt.Errorf("interference %q: %w", sc.name, err)
		}
		out = append(out, InterferencePoint{
			Name:     sc.name,
			Channels: len(dep.Bands),
			BLoc:     NewErrorStats(errs),
		})
	}
	return out, nil
}

// InterferenceTable renders the coexistence comparison.
func InterferenceTable(ps []InterferencePoint) *Table {
	t := &Table{
		Title:   "Ablation — Wi-Fi coexistence: adaptive frequency hopping (§8.6 mechanism)",
		Columns: []string{"scenario", "channels", "BLoc median (cm)", "p90 (cm)"},
	}
	for _, p := range ps {
		t.AddRow(p.Name, fmt.Sprint(p.Channels), Cm(p.BLoc.Median), Cm(p.BLoc.P90))
	}
	return t
}

// ---------------------------------------------------------------------------
// Tag motion during acquisition: the paper's evaluation is static; a full
// hop cycle takes ≈280 ms, so motion smears the cross-band geometry.

// MotionPoint is one speed evaluation.
type MotionPoint struct {
	SpeedMS float64
	BLoc    ErrorStats
}

// cycleSeconds is the duration of one 37-band acquisition at the fastest
// connection interval (7.5 ms per event).
const cycleSeconds = 37 * 0.0075

// AblationMotion localizes tags walking in straight lines at several
// speeds, measuring error against the tag's mid-acquisition position (the
// fairest single ground truth for a smeared measurement).
func AblationMotion(seed uint64, positions int, speeds []float64) ([]MotionPoint, error) {
	dep, err := testbed.Paper(seed)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return nil, err
	}
	room := dep.Env.Room.Inset(0.6)
	starts := SamplePositions(room, positions, 0.04, 0, seed^0x40710)
	out := make([]MotionPoint, 0, len(speeds))
	K := len(dep.Bands)
	for _, speed := range speeds {
		errs := make([]float64, 0, len(starts))
		for pi, start := range starts {
			// Heading varies deterministically per position.
			dir := geom.Vec(1, 0).Rotate(float64(pi) * 2.39996)
			step := speed * cycleSeconds / float64(K)
			d := dep.Fork(uint64(pi) + uint64(speed*1000)<<20)
			snap := d.SoundingMoving(func(band int) geom.Point {
				return dep.Env.Room.Clamp(start.Add(dir.Scale(float64(band) * step)))
			})
			res, err := eng.LocateOpts(snap, core.LocateOptions{})
			if err != nil {
				return nil, fmt.Errorf("motion %v position %d: %w", speed, pi, err)
			}
			mid := dep.Env.Room.Clamp(start.Add(dir.Scale(float64(K) / 2 * step)))
			errs = append(errs, res.Estimate.Dist(mid))
		}
		out = append(out, MotionPoint{SpeedMS: speed, BLoc: NewErrorStats(errs)})
	}
	return out, nil
}

// MotionTable renders the sweep.
func MotionTable(ps []MotionPoint) *Table {
	t := &Table{
		Title:   "Ablation — tag motion during the 280 ms hop cycle",
		Columns: []string{"speed (m/s)", "BLoc median (cm)", "p90 (cm)"},
	}
	for _, p := range ps {
		t.AddRow(fmt.Sprintf("%.1f", p.SpeedMS), Cm(p.BLoc.Median), Cm(p.BLoc.P90))
	}
	return t
}

// ---------------------------------------------------------------------------
// Bluetooth 5.1 CTE direction finding vs BLoc — a comparison the paper
// could not run (CTE was standardized after publication): does a clean,
// standardized angle measurement close the gap?

// CTEResult compares the two systems on the same positions.
type CTEResult struct {
	CTE  ErrorStats
	BLoc ErrorStats
}

// AblationCTE localizes the dataset positions with both systems. CTE uses
// a 160 µs tone on channel 18 with light sample noise; BLoc uses its full
// 37-band acquisition.
func AblationCTE(seed uint64, positions int) (*CTEResult, error) {
	dep, err := testbed.Paper(seed)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return nil, err
	}
	pts := SamplePositions(dep.Env.Room, positions, 0.04, 0.25, seed^0xC7E)
	cteErrs := make([]float64, 0, len(pts))
	blocErrs := make([]float64, 0, len(pts))
	for pi, p := range pts {
		d := dep.Fork(uint64(pi))
		per, err := d.CTESounding(p, 18, 1e-4)
		if err != nil {
			return nil, err
		}
		rc, err := eng.LocateCTE(2.44e9, per)
		if err != nil {
			return nil, err
		}
		rb, err := eng.LocateOpts(d.Sounding(p), core.LocateOptions{})
		if err != nil {
			return nil, err
		}
		cteErrs = append(cteErrs, rc.Estimate.Dist(p))
		blocErrs = append(blocErrs, rb.Estimate.Dist(p))
	}
	return &CTEResult{CTE: NewErrorStats(cteErrs), BLoc: NewErrorStats(blocErrs)}, nil
}

// CTETable renders the comparison.
func CTETable(r *CTEResult) *Table {
	t := &Table{
		Title:   "Ablation — Bluetooth 5.1 CTE direction finding vs BLoc",
		Columns: []string{"system", "median (cm)", "p90 (cm)"},
	}
	t.AddRow("CTE AoA (BLE 5.1)", Cm(r.CTE.Median), Cm(r.CTE.P90))
	t.AddRow("BLoc", Cm(r.BLoc.Median), Cm(r.BLoc.P90))
	return t
}

// ---------------------------------------------------------------------------
// Wi-Fi CSI (SpotFi-class) vs BLE BLoc — the benchmark the paper aims at:
// "Wi-Fi localization has moved towards CSI… around 1 m median error"
// (§1). Both systems run in the same room against the same propagation.

// WiFiResult compares Wi-Fi least-ToF AoA, BLE BLoc and BLE AoA.
type WiFiResult struct {
	WiFi   ErrorStats
	BLoc   ErrorStats
	BLEAoA ErrorStats
}

// AblationWiFi localizes the same positions with a 4-AP Wi-Fi SpotFi
// deployment (20 MHz CSI, least-ToF direct-path selection) and the BLE
// deployment (BLoc and the AoA baseline), all sharing the room geometry.
func AblationWiFi(seed uint64, positions int) (*WiFiResult, error) {
	dep, err := testbed.Paper(seed)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return nil, err
	}
	wfi, err := wifi.NewLocalizer(dep.Anchors, dep.Env.Room, 2.44e9)
	if err != nil {
		return nil, err
	}
	pts := SamplePositions(dep.Env.Room, positions, 0.04, 0.25, seed^0x3F1)
	rng := rand.New(rand.NewPCG(seed, 0x3F1))
	var wifiErrs, blocErrs, aoaErrs []float64
	for pi, p := range pts {
		ms, err := wifi.Measure(dep.Env, dep.Anchors, p, 2.44e9, 1e-3, rng)
		if err != nil {
			return nil, err
		}
		wp, err := wfi.Locate(ms)
		if err != nil {
			return nil, err
		}
		d := dep.Fork(uint64(pi))
		snap := d.Sounding(p)
		rb, err := eng.LocateOpts(snap, core.LocateOptions{})
		if err != nil {
			return nil, err
		}
		ra, err := eng.LocateAoA(snap)
		if err != nil {
			return nil, err
		}
		wifiErrs = append(wifiErrs, wp.Dist(p))
		blocErrs = append(blocErrs, rb.Estimate.Dist(p))
		aoaErrs = append(aoaErrs, ra.Estimate.Dist(p))
	}
	return &WiFiResult{
		WiFi:   NewErrorStats(wifiErrs),
		BLoc:   NewErrorStats(blocErrs),
		BLEAoA: NewErrorStats(aoaErrs),
	}, nil
}

// ---------------------------------------------------------------------------
// Reference failover: the locserver re-elects the α-correction reference
// away from a degraded master (DESIGN.md §10), so this ablation prices the
// mechanism. The relaxed Eq. 10 cancels every LO term for any reference
// index, so clean-data accuracy must be reference-independent; the
// interesting rows are the fault scenarios — the original master dead
// (localize re-referenced from the survivors), a corrupt anchor
// quarantined (its rows masked, the clean-round case of the fault drill,
// which must stay within ~10% of the no-fault baseline), and the RSSI
// coarse fallback used when the CSI quorum is unmet.

// FailoverPoint is one reference/fault scenario.
type FailoverPoint struct {
	Name  string
	Stats ErrorStats
}

// AblationFailover evaluates the failover plane's operating points on the
// shared dataset.
func (s *Suite) AblationFailover() ([]FailoverPoint, error) {
	N := len(s.Dep.Anchors)
	refEst := func(ref int) Estimator {
		return func(eng *core.Engine, snap *csi.Snapshot) (*core.Result, error) {
			return eng.LocateOpts(snap, core.LocateOptions{Ref: ref})
		}
	}
	maskAnchor := func(i int) func(*csi.Snapshot) (*csi.Snapshot, error) {
		return func(snap *csi.Snapshot) (*csi.Snapshot, error) {
			m := snap.MaskedCopy()
			for k := range m.Bands {
				m.MaskMissing(k, i)
			}
			return m, nil
		}
	}
	type scenario struct {
		name string
		est  Estimator
		prep func(*csi.Snapshot) (*csi.Snapshot, error)
	}
	scenarios := []scenario{{name: "reference 0 (paper master), no faults", est: EstimatorBLoc}}
	for r := 1; r < N; r++ {
		scenarios = append(scenarios, scenario{
			name: fmt.Sprintf("reference %d, no faults", r),
			est:  refEst(r),
		})
	}
	scenarios = append(scenarios,
		scenario{
			name: fmt.Sprintf("anchor %d quarantined (clean rounds of the fault drill)", N-1),
			est:  EstimatorBLoc, prep: maskAnchor(N - 1),
		},
		scenario{
			name: "master dead, re-referenced to anchor 1",
			est:  refEst(1), prep: maskAnchor(0),
		},
		scenario{
			name: "master dead, RSSI coarse fallback",
			est:  EstimatorRSSI, prep: maskAnchor(0),
		},
	)
	out := make([]FailoverPoint, 0, len(scenarios))
	for _, sc := range scenarios {
		errs, err := s.Errors(s.Eng, sc.est, sc.prep)
		if err != nil {
			return nil, fmt.Errorf("failover %q: %w", sc.name, err)
		}
		out = append(out, FailoverPoint{Name: sc.name, Stats: NewErrorStats(errs)})
	}
	return out, nil
}

// FailoverTable renders the failover operating points.
func FailoverTable(ps []FailoverPoint) *Table {
	t := &Table{
		Title:   "Ablation — reference failover and quarantine (data-quality plane)",
		Columns: []string{"scenario", "median (cm)", "p90 (cm)"},
	}
	for _, p := range ps {
		t.AddRow(p.Name, Cm(p.Stats.Median), Cm(p.Stats.P90))
	}
	return t
}

// WiFiTable renders the comparison.
func WiFiTable(r *WiFiResult) *Table {
	t := &Table{
		Title:   "Ablation — Wi-Fi CSI (SpotFi-class) vs BLE in the same room",
		Columns: []string{"system", "median (cm)", "p90 (cm)"},
	}
	t.AddRow("Wi-Fi 20 MHz least-ToF AoA", Cm(r.WiFi.Median), Cm(r.WiFi.P90))
	t.AddRow("BLE BLoc", Cm(r.BLoc.Median), Cm(r.BLoc.P90))
	t.AddRow("BLE AoA baseline", Cm(r.BLEAoA.Median), Cm(r.BLEAoA.P90))
	return t
}
