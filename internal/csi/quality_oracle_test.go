package csi

import (
	"math"
	"math/cmplx"
	"sort"
)

// The validator's sort-based reference. OracleValidator is RowValidator
// as it stood before the magnitude window kept a sorted copy: it sorts a
// copy of the window, then the deviations, on every row. The
// differential tests (quality_fuzz_test.go) require the production
// validator to return the same verdicts and the same (median, MAD) bits
// after every row.

// sortMedianMAD returns the median and the median absolute deviation of
// window by sorting; the window is left untouched.
func sortMedianMAD(window []float64) (med, mad float64) {
	s := append([]float64(nil), window...)
	sort.Float64s(s)
	med = s[len(s)/2]
	for i, x := range s {
		s[i] = math.Abs(x - med)
	}
	sort.Float64s(s)
	mad = s[len(s)/2]
	return med, mad
}

// OracleValidator mirrors RowValidator with a ring-only window and the
// sort-based median/MAD.
type OracleValidator struct {
	cfg   QualityConfig
	state []oracleState
}

type oracleState struct {
	anchorQState // stuck/frozen history; its sorted copy stays unused
	wlen         int
}

// NewOracleValidator returns the reference validator for the given
// anchor count.
func NewOracleValidator(anchors int, cfg QualityConfig) *OracleValidator {
	c := cfg.withDefaults()
	o := &OracleValidator{cfg: c, state: make([]oracleState, anchors)}
	for i := range o.state {
		o.state[i].window = make([]float64, c.MADWindow)
	}
	return o
}

// Check is RowValidator.Check with the window median and MAD taken by
// sortMedianMAD.
func (o *OracleValidator) Check(anchor int, tones []complex128, master complex128) RowVerdict {
	if anchor < 0 || anchor >= len(o.state) {
		return RowNonFinite
	}
	st := &o.state[anchor]
	if !finiteTones(tones) || !finiteTone(master) {
		st.resetRuns()
		return RowNonFinite
	}
	var maxMag, sumMag float64
	for _, z := range tones {
		m := cmplx.Abs(z)
		sumMag += m
		if m > maxMag {
			maxMag = m
		}
	}
	if maxMag < o.cfg.DeadFloor {
		st.resetRuns()
		return RowDead
	}
	if st.haveLast && sameTones(st.last, tones) {
		st.stuckRun++
		if st.stuckRun+1 >= o.cfg.StuckRows {
			return RowStuckTones
		}
	} else {
		st.stuckRun = 0
	}
	phase := cmplx.Phase(tones[0])
	frozen := false
	if st.havePrev {
		delta := wrapPhase(phase - st.lastPhase)
		if st.haveDelta && math.Abs(wrapPhase(delta-st.lastDelta)) < o.cfg.FrozenEps {
			st.frozenRun++
			if st.frozenRun >= o.cfg.FrozenRows {
				frozen = true
			}
		} else {
			st.frozenRun = 0
		}
		st.lastDelta = delta
		st.haveDelta = true
	}
	st.lastPhase = phase
	st.havePrev = true
	if frozen {
		return RowFrozenPhase
	}
	logMag := math.Log10(sumMag / float64(len(tones)))
	outlier := false
	if st.wlen >= o.cfg.MADMinSamples {
		med, mad := sortMedianMAD(st.window[:st.wlen])
		if mad < madFloor {
			mad = madFloor
		}
		outlier = math.Abs(logMag-med) > o.cfg.MADGate*mad
	}
	st.window[st.wpos] = logMag
	st.wpos = (st.wpos + 1) % len(st.window)
	if st.wlen < len(st.window) {
		st.wlen++
	}
	if outlier {
		return RowMagOutlier
	}
	st.last = append(st.last[:0], tones...)
	st.haveLast = true
	return RowOK
}

// Reset clears one anchor's history, as RowValidator.Reset does.
func (o *OracleValidator) Reset(anchor int) {
	if anchor < 0 || anchor >= len(o.state) {
		return
	}
	w := o.state[anchor].window
	o.state[anchor] = oracleState{anchorQState: anchorQState{window: w}}
}

// WindowStats returns the sort-based median and MAD of one anchor's
// window; ok is false while the window is empty.
func (o *OracleValidator) WindowStats(anchor int) (med, mad float64, ok bool) {
	st := &o.state[anchor]
	if st.wlen == 0 {
		return 0, 0, false
	}
	med, mad = sortMedianMAD(st.window[:st.wlen])
	return med, mad, true
}

// WindowStats returns the production median and MAD of one anchor's
// window; ok is false while the window is empty.
func (v *RowValidator) WindowStats(anchor int) (med, mad float64, ok bool) {
	st := &v.state[anchor]
	if len(st.sorted) == 0 {
		return 0, 0, false
	}
	med, mad = st.medianMAD()
	return med, mad, true
}
