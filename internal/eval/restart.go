package eval

import (
	"fmt"
	"math"

	"bloc/internal/core"
	"bloc/internal/durable"
	"bloc/internal/testbed"
)

// ---------------------------------------------------------------------------
// Warm vs cold restart: the durable state plane (DESIGN.md §11) exists so
// a restarted server resumes accurate localization immediately instead of
// re-paying the array calibration. This ablation prices exactly that
// difference: starting from a deployment with real per-antenna phase
// miscalibration, it compares time-to-first-accurate-fix for a server
// that warm-restored its calibration rotors from a snapshot (round-
// tripped through the actual durable codec, not handed over in memory)
// against one that cold-starts and must localize uncalibrated while the
// recalibration sounding runs.

// RestartMode is one restart strategy's measured behaviour.
type RestartMode struct {
	// FirstFix is the error of the very first post-restart fix.
	FirstFix ErrorStats
	// Settled is the error once the mode has its calibration in hand
	// (immediately for warm, after recalibration for cold).
	Settled ErrorStats
	// MeanRounds is the mean rounds-to-first-accurate-fix over the
	// positions that reach accuracy within the horizon (the p90 bar by
	// construction leaves a tail of positions that never do, in either
	// mode — their static geometry error sits above it).
	MeanRounds float64
	// FirstRoundPct is the share of positions already accurate on the
	// very first post-restart fix.
	FirstRoundPct float64
}

// RestartResult is the warm/cold comparison.
type RestartResult struct {
	// CalRounds is how many calibration sounding rounds the cold restart
	// spends before a stable calibration estimate succeeds.
	CalRounds int
	// ThresholdM is the "accurate fix" bar in meters: the p90 error of
	// the calibrated steady state.
	ThresholdM float64
	// Rounds is the per-position simulation horizon.
	Rounds int
	Warm   RestartMode
	Cold   RestartMode
}

// AblationRestart simulates both restart paths over a shared position
// set. The deployment carries phaseErrDeg of static per-antenna phase
// error so calibration genuinely changes accuracy, and runs in the clean
// room (like the core calibration tests) so the measured gap is the
// calibration itself, not multipath confounding it. The warm path's
// calibration is proven by encoding it into a durable snapshot, decoding
// it back and rebuilding a core.Calibration from the decoded rotors —
// the same code path a real warm restart takes.
func AblationRestart(seed uint64, positions int, phaseErrDeg float64) (*RestartResult, error) {
	cfg := testbed.PaperConfig(seed)
	cfg.AntennaPhaseErrDeg = phaseErrDeg
	dep, err := testbed.New(testbed.CleanEnvironment(seed), cfg)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return nil, err
	}

	// The calibration a crash wiped out — and the price of re-estimating
	// it: each salt is one sounding round, retried until the estimate is
	// stable (echoing System.Calibrate's retry loop).
	cal, calRounds, err := estimateStableCalibration(dep)
	if err != nil {
		return nil, err
	}

	// Round-trip the rotors through the durable codec to obtain the warm
	// restart's calibration exactly as a restarted server would see it.
	warmCal, err := roundTripCalibration(dep, cal)
	if err != nil {
		return nil, err
	}

	const settleRounds = 3 // accurate rounds to observe after recalibration
	rounds := calRounds + settleRounds
	pts := SamplePositions(dep.Env.Room, positions, 0.04, 0.25, seed^0x6E57A67)

	// Per position and round, both modes localize the same sounding: the
	// fork salt depends only on (position, round), so warm vs cold differ
	// purely in the calibration applied, never in the noise draw.
	warmErrs := make([][]float64, len(pts))
	coldErrs := make([][]float64, len(pts))
	for pi, p := range pts {
		warmErrs[pi] = make([]float64, rounds)
		coldErrs[pi] = make([]float64, rounds)
		for r := 0; r < rounds; r++ {
			snap := dep.Fork(uint64(pi)<<8 | uint64(r)).Sounding(p)

			ws, err := warmCal.Apply(snap)
			if err != nil {
				return nil, fmt.Errorf("restart warm apply: %w", err)
			}
			wres, err := eng.LocateOpts(ws, core.LocateOptions{})
			if err != nil {
				return nil, fmt.Errorf("restart warm position %d round %d: %w", pi, r, err)
			}
			warmErrs[pi][r] = wres.Estimate.Dist(p)

			// Cold: uncalibrated while the calRounds sounding rounds run,
			// freshly calibrated afterwards.
			cs := snap
			if r >= calRounds {
				cs, err = cal.Apply(snap)
				if err != nil {
					return nil, fmt.Errorf("restart cold apply: %w", err)
				}
			}
			cres, err := eng.LocateOpts(cs, core.LocateOptions{})
			if err != nil {
				return nil, fmt.Errorf("restart cold position %d round %d: %w", pi, r, err)
			}
			coldErrs[pi][r] = cres.Estimate.Dist(p)
		}
	}

	// "Accurate" = within the calibrated steady state's p90 envelope,
	// measured on the warm fixes themselves (the warm server IS the
	// calibrated steady state from round one).
	var steady []float64
	for _, errs := range warmErrs {
		steady = append(steady, errs...)
	}
	thresh := NewErrorStats(steady).P90

	res := &RestartResult{CalRounds: calRounds, ThresholdM: thresh, Rounds: rounds}
	res.Warm = summarizeRestart(warmErrs, rounds, thresh)
	res.Cold = summarizeRestart(coldErrs, calRounds, thresh)
	return res, nil
}

// estimateStableCalibration retries the calibration sounding with fresh
// salts until EstimateCalibration accepts it, returning the calibration
// and how many sounding rounds were spent.
func estimateStableCalibration(dep *testbed.Deployment) (*core.Calibration, int, error) {
	const maxAttempts = 16
	var lastErr error
	for salt := uint64(0); salt < maxAttempts; salt++ {
		d := dep.Fork(0xCA11 + salt)
		meas, txPos := d.CalibrationSounding()
		freqs := make([]float64, len(d.Bands))
		for k, ch := range d.Bands {
			freqs[k] = ch.CenterFreq()
		}
		cal, err := core.EstimateCalibration(dep.Anchors, txPos, freqs, meas)
		if err == nil {
			return cal, int(salt) + 1, nil
		}
		lastErr = err
	}
	return nil, 0, fmt.Errorf("eval: restart ablation: calibration never stabilized: %w", lastErr)
}

// roundTripCalibration encodes the calibration into a durable snapshot,
// decodes it and restores a core.Calibration from the decoded rotors,
// verifying the round trip preserved every rotor bit-for-bit.
func roundTripCalibration(dep *testbed.Deployment, cal *core.Calibration) (*core.Calibration, error) {
	st := &durable.State{
		SavedUnixNano: 1,
		Anchors:       make([]durable.AnchorHealth, len(dep.Anchors)),
	}
	for i := range st.Anchors {
		st.Anchors[i].Score = 1
	}
	st.Calib = cal.ExportRotors()
	decoded, err := durable.DecodeSnapshot(durable.EncodeSnapshot(st, 1))
	if err != nil {
		return nil, fmt.Errorf("eval: restart ablation: snapshot round trip: %w", err)
	}
	restored, err := core.RestoreCalibration(decoded.Calib)
	if err != nil {
		return nil, fmt.Errorf("eval: restart ablation: restore: %w", err)
	}
	for i, rotors := range cal.Rotors {
		for j, want := range rotors {
			if !sameBits(restored.Rotors[i][j], want) {
				return nil, fmt.Errorf("eval: restart ablation: rotor %d/%d changed across the round trip", i, j)
			}
		}
	}
	return restored, nil
}

// sameBits reports bit-identical complex values (the round-trip guarantee
// is exact representation, not numeric closeness).
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// summarizeRestart reduces per-position round error series to one mode's
// stats. settledFrom is the first round index with calibration in hand.
func summarizeRestart(errs [][]float64, settledFrom int, thresh float64) RestartMode {
	rounds := len(errs[0])
	if settledFrom >= rounds {
		settledFrom = rounds - 1
	}
	var first, settled []float64
	total, reached, atFirst := 0, 0, 0
	for _, series := range errs {
		first = append(first, series[0])
		settled = append(settled, series[settledFrom:]...)
		for r, e := range series {
			if e <= thresh {
				total += r + 1
				reached++
				if r == 0 {
					atFirst++
				}
				break
			}
		}
	}
	mean := float64(rounds)
	if reached > 0 {
		mean = float64(total) / float64(reached)
	}
	return RestartMode{
		FirstFix:      NewErrorStats(first),
		Settled:       NewErrorStats(settled),
		MeanRounds:    mean,
		FirstRoundPct: 100 * float64(atFirst) / float64(len(errs)),
	}
}

// RestartTable renders the warm/cold comparison.
func RestartTable(r *RestartResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Ablation — warm vs cold restart (durable state plane; "+
			"accurate = ≤%s cm, cold recalibration = %d round(s))",
			Cm(r.ThresholdM), r.CalRounds),
		Columns: []string{"restart", "first fix median (cm)", "settled median (cm)",
			"mean rounds to accurate", "accurate at round 1"},
	}
	row := func(name string, m RestartMode) {
		t.AddRow(name, Cm(m.FirstFix.Median), Cm(m.Settled.Median),
			fmt.Sprintf("%.1f", m.MeanRounds), fmt.Sprintf("%.0f%%", m.FirstRoundPct))
	}
	row("warm (snapshot restore)", r.Warm)
	row("cold (recalibrate)", r.Cold)
	return t
}
