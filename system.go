package bloc

import (
	"fmt"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/rfsim"
	"bloc/internal/testbed"
)

// Point is a 2-D location in meters.
type Point = geom.Point

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Snapshot is one CSI acquisition: the measured channels of every anchor,
// antenna and BLE band for both directions of the master↔tag exchange.
type Snapshot = csi.Snapshot

// Method selects the localization estimator.
type Method int

// Estimators: BLoc itself and the paper's comparison baselines.
const (
	// MethodBLoc is the full pipeline of §5: offset correction, joint
	// angle/relative-distance likelihood, entropy-scored peak selection.
	MethodBLoc Method = iota
	// MethodAoA is the AoA-combining baseline (§8.2): one bearing per
	// anchor, least-squares triangulation.
	MethodAoA
	// MethodAoASoft is an extension baseline: full angular spectra voted
	// over the grid.
	MethodAoASoft
	// MethodShortestDistance is the §8.7 ablation: BLoc's likelihood with
	// naive shortest-total-distance peak selection.
	MethodShortestDistance
	// MethodRSSI is signal-strength trilateration (§9.2 context).
	MethodRSSI
	// MethodMUSIC is a super-resolution AoA baseline (extension): MUSIC
	// pseudo-spectrum bearings triangulated like MethodAoA.
	MethodMUSIC
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodBLoc:
		return "bloc"
	case MethodAoA:
		return "aoa"
	case MethodAoASoft:
		return "aoa-soft"
	case MethodShortestDistance:
		return "shortest-distance"
	case MethodRSSI:
		return "rssi"
	case MethodMUSIC:
		return "music"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Scatterer describes an imperfect metallic reflector in the room: a
// diffuse cluster of reflecting facets around Center.
type Scatterer struct {
	Center Point
	Radius float64 // facet spread, meters
	Gain   float64 // √RCS-like amplitude coefficient
	Facets int
}

// Obstacle is desk-height clutter that attenuates tag-height links
// crossing the segment from A to B.
type Obstacle struct {
	A, B        Point
	Attenuation float64 // amplitude factor in (0, 1]
}

// Wall is an interior partition (full height): it reflects on both faces
// and attenuates links crossing it — the building block of multi-room
// floorplans.
type Wall struct {
	A, B         Point
	Reflectivity float64 // specular amplitude coefficient (e.g. 0.4)
	Transmission float64 // amplitude factor of crossings, (0, 1] (e.g. 0.5 drywall)
}

// Options configures a System.
type Options struct {
	// RoomMin/RoomMax bound the space (meters). Zero values select the
	// paper's 5 m × 6 m VICON room.
	RoomMin, RoomMax Point
	// Anchors is the number of anchor arrays (2–8, default 4); the first
	// is the master the tag connects to.
	Anchors int
	// Antennas per anchor (default 4).
	Antennas int
	// SNRdB is the channel-estimate SNR referenced at 3 m (default 25; 0
	// keeps the default, use NoiseOff to disable).
	SNRdB float64
	// NoiseOff disables measurement noise entirely.
	NoiseOff bool
	// AntennaPhaseErrDeg is the 1-σ static per-antenna calibration error.
	AntennaPhaseErrDeg float64
	// Seed drives every random draw; equal seeds reproduce bit-for-bit.
	Seed uint64
	// PaperRoom fills the room with the multipath-rich furniture of the
	// paper's VICON space (§7). When false, Scatterers/Obstacles below
	// are used (both empty → free space with specular walls).
	PaperRoom bool
	// WallReflectivity is the specular wall coefficient (default 0.45).
	WallReflectivity float64
	Scatterers       []Scatterer
	Obstacles        []Obstacle
	Walls            []Wall
	// GridCellM overrides the XY likelihood resolution (default 0.05 m).
	GridCellM float64
}

// DefaultOptions returns the paper's deployment: the multipath-rich
// 5 m × 6 m room with four 4-antenna anchors at the wall midpoints.
func DefaultOptions() Options {
	return Options{Anchors: 4, Antennas: 4, SNRdB: 25, PaperRoom: true, Seed: 1}
}

// Fix is a localization result.
type Fix struct {
	Estimate Point
	// Truth and Error are populated by Localize (which knows the
	// simulated ground truth); LocalizeSnapshot leaves them zero.
	Truth Point
	Error float64
	// Candidates are BLoc's scored likelihood peaks (nil for baselines
	// that do not produce peak candidates).
	Candidates []core.Candidate
}

// System is a configured BLoc deployment: simulated radio environment,
// anchor geometry and the localization engine.
type System struct {
	opts Options
	dep  *testbed.Deployment
	eng  *core.Engine
	seq  uint64 // acquisition counter for deterministic forking
}

// NewSystem validates the options and builds the deployment and engine.
func NewSystem(opts Options) (*System, error) {
	if opts.Anchors == 0 {
		opts.Anchors = 4
	}
	if opts.Antennas == 0 {
		opts.Antennas = 4
	}
	//lint:ignore floateq unset option sentinel is exactly zero
	if opts.SNRdB == 0 && !opts.NoiseOff {
		opts.SNRdB = 25
	}
	room := testbed.PaperRoom()
	if opts.RoomMin != opts.RoomMax {
		room = geom.NewRect(opts.RoomMin, opts.RoomMax)
		if room.Width() < 1 || room.Height() < 1 {
			return nil, fmt.Errorf("bloc: room %v too small", room)
		}
	}
	var env *rfsim.Environment
	if opts.PaperRoom {
		env = testbed.PaperEnvironment(opts.Seed)
		env.Room = room
	} else {
		env = rfsim.NewEnvironment(room, opts.Seed)
		if opts.WallReflectivity > 0 {
			env.WallReflectivity = opts.WallReflectivity
		}
		env.SecondOrderWalls = true
		for _, s := range opts.Scatterers {
			env.AddScatterer(rfsim.Scatterer{
				Center: s.Center, Radius: s.Radius, Gain: s.Gain, Facets: s.Facets,
			})
		}
		for _, o := range opts.Obstacles {
			if err := env.AddObstacle(rfsim.Obstacle{
				Wall:          geom.Seg(o.A, o.B),
				Attenuation:   o.Attenuation,
				TagHeightOnly: true,
			}); err != nil {
				return nil, fmt.Errorf("bloc: %w", err)
			}
		}
		for _, w := range opts.Walls {
			if err := env.AddInteriorWall(rfsim.InteriorWall{
				Wall:         geom.Seg(w.A, w.B),
				Reflectivity: w.Reflectivity,
				Transmission: w.Transmission,
			}); err != nil {
				return nil, fmt.Errorf("bloc: %w", err)
			}
		}
	}
	snr := opts.SNRdB
	if opts.NoiseOff {
		snr = 0
	}
	dep, err := testbed.New(env, testbed.Config{
		Anchors:            opts.Anchors,
		Antennas:           opts.Antennas,
		SNRdB:              snr,
		Seed:               opts.Seed,
		AntennaPhaseErrDeg: opts.AntennaPhaseErrDeg,
	})
	if err != nil {
		return nil, fmt.Errorf("bloc: %w", err)
	}
	cfg := core.DefaultConfig(room)
	if opts.GridCellM > 0 {
		cfg.CellM = opts.GridCellM
	}
	eng, err := core.NewEngine(dep.Anchors, cfg)
	if err != nil {
		return nil, fmt.Errorf("bloc: %w", err)
	}
	return &System{opts: opts, dep: dep, eng: eng}, nil
}

// Room returns the system's room bounds.
func (s *System) Room() (min, max Point) { return s.dep.Env.Room.Min, s.dep.Env.Room.Max }

// AnchorPositions returns the center of each anchor array, master first.
func (s *System) AnchorPositions() []Point {
	out := make([]Point, len(s.dep.Anchors))
	for i, a := range s.dep.Anchors {
		out[i] = a.Center()
	}
	return out
}

// Acquire simulates one CSI acquisition for a tag at the given true
// position: the tag exchanges sounding packets with the master on every
// BLE data channel while all anchors measure, per §3–§5 of the paper.
func (s *System) Acquire(tag Point) *Snapshot {
	s.seq++
	return s.dep.Fork(s.seq).Sounding(tag)
}

// Localize simulates an acquisition at the given true tag position and
// runs the BLoc estimator, reporting the error against ground truth.
func (s *System) Localize(tag Point) (*Fix, error) {
	return s.LocalizeWith(MethodBLoc, tag)
}

// LocalizeWith is Localize with an explicit estimator.
func (s *System) LocalizeWith(m Method, tag Point) (*Fix, error) {
	fix, err := s.LocalizeSnapshot(m, s.Acquire(tag))
	if err != nil {
		return nil, err
	}
	fix.Truth = tag
	fix.Error = fix.Estimate.Dist(tag)
	return fix, nil
}

// LocalizeSnapshot runs an estimator on an externally supplied snapshot
// (e.g. one assembled by the TCP collection plane).
func (s *System) LocalizeSnapshot(m Method, snap *Snapshot) (*Fix, error) {
	var (
		res *core.Result
		err error
	)
	switch m {
	case MethodBLoc:
		res, err = s.eng.LocateOpts(snap, core.LocateOptions{})
	case MethodAoA:
		res, err = s.eng.LocateAoA(snap)
	case MethodAoASoft:
		res, err = s.eng.LocateAoASoft(snap)
	case MethodShortestDistance:
		res, err = s.eng.LocateShortestDistance(snap)
	case MethodRSSI:
		res, err = s.eng.LocateRSSI(snap)
	case MethodMUSIC:
		res, err = s.eng.LocateMUSIC(snap)
	default:
		return nil, fmt.Errorf("bloc: unknown method %v", m)
	}
	if err != nil {
		return nil, err
	}
	return &Fix{Estimate: res.Estimate, Candidates: res.Candidates}, nil
}

// FingerprintDB is a site-survey fingerprint database — the KNN rung of
// the serving plane's degradation ladder (DESIGN.md §16). Build one with
// System.SurveyFingerprints (or bloc-dataset survey), persist it with
// its WriteFile/ReadFile codec, and serve lookups with
// LocalizeFingerprint when too few anchors report for the CSI pipeline.
type FingerprintDB = fingerprint.DB

// SurveyFingerprints walks a reference grid over the room — stepM pitch,
// samples independent soundings medianed per point (both ≤ 0 select the
// defaults: 0.5 m, 3) — and records each point's per-anchor RSSI
// signature: the offline site-survey campaign behind the fingerprint
// rung. Survey forks are salted independently of Acquire's sequence
// counter, so surveying does not perturb later acquisitions.
func (s *System) SurveyFingerprints(stepM float64, samples int) (*FingerprintDB, error) {
	return fingerprint.Survey(s.dep.Env.Room, len(s.dep.Anchors),
		func(point, rep int, p Point) *Snapshot {
			// Same fork-salt convention as bloc-dataset survey.
			return s.dep.Fork(0x5E0<<16 | uint64(point)<<4 | uint64(rep)).Sounding(p)
		}, fingerprint.SurveyOptions{StepM: stepM, Samples: samples})
}

// LocalizeFingerprint localizes a snapshot by weighted-KNN lookup
// against a survey. The snapshot may be partial — anchors with no
// usable rows become NaN in the signature and the lookup matches over
// the overlap — which is exactly the degraded regime (unmet quorum,
// silent reference, dead cell) the fingerprint rung exists to serve.
func (s *System) LocalizeFingerprint(db *FingerprintDB, snap *Snapshot) (*Fix, error) {
	p, err := db.Locate(fingerprint.Signature(snap))
	if err != nil {
		return nil, err
	}
	return &Fix{Estimate: p}, nil
}

// Deployment exposes the underlying testbed for in-module tooling (cmd/,
// benches). It is not part of the stable API surface.
func (s *System) Deployment() *testbed.Deployment { return s.dep }

// Engine exposes the localization engine for in-module tooling.
func (s *System) Engine() *core.Engine { return s.eng }

// Calibrate runs array self-calibration: each anchor measures reference
// transmissions from a neighboring anchor (whose position is known from
// deployment) and estimates its static per-antenna phase errors. The
// returned calibration can be applied to snapshots before localization;
// CalibrateAndApply does both in one step for the common case.
func (s *System) Calibrate() (*core.Calibration, error) {
	s.seq++
	d := s.dep.Fork(0xCA11 + s.seq)
	meas, txPos := d.CalibrationSounding()
	freqs := make([]float64, len(d.Bands))
	for k, ch := range d.Bands {
		freqs[k] = ch.CenterFreq()
	}
	return core.EstimateCalibration(d.Anchors, txPos, freqs, meas)
}

// LocalizeCalibrated simulates an acquisition, applies the calibration
// and runs the estimator.
func (s *System) LocalizeCalibrated(cal *core.Calibration, m Method, tag Point) (*Fix, error) {
	snap, err := cal.Apply(s.Acquire(tag))
	if err != nil {
		return nil, err
	}
	fix, err := s.LocalizeSnapshot(m, snap)
	if err != nil {
		return nil, err
	}
	fix.Truth = tag
	fix.Error = fix.Estimate.Dist(tag)
	return fix, nil
}
