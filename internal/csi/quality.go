package csi

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// CSI sanity pipeline (data-quality plane): every snapshot row is
// validated on ingest, before it can reach the α correction or the
// likelihood kernels. Production radios drift, saturate and lie — the
// checks below catch the four failure shapes the fault injectors in
// internal/faultnet reproduce:
//
//   - non-finite payloads (bit flips in the float encoding, DMA garbage);
//   - dead rows (zero/denormal magnitudes from a muted or saturated ADC);
//   - stuck tones (a frozen synthesizer or replayed DMA buffer emits the
//     same complex values row after row — physically impossible, since
//     every BLE retune draws a fresh LO phase, §5.1);
//   - missing phase discontinuity (the inter-row phase delta must be
//     re-randomized by each retune; a near-constant delta across rows
//     marks a CFO-locked replay or drifting oscillator);
//   - magnitude outliers (a row whose mean magnitude sits implausibly far
//     from the anchor's rolling median, in MAD units — silent garbage
//     with the wrong power level).
//
// The per-row verdicts feed the rolling per-anchor health scores in
// internal/locserver, which quarantine misbehaving anchors and drive
// reference re-election.

// RowVerdict classifies one ingested CSI row.
type RowVerdict uint8

const (
	// RowOK: the row passed every check.
	RowOK RowVerdict = iota
	// RowNonFinite: a tone carries NaN or ±Inf.
	RowNonFinite
	// RowDead: every tone magnitude is below the dead floor.
	RowDead
	// RowStuckTones: the row repeats the previous rows' exact values.
	RowStuckTones
	// RowFrozenPhase: the expected per-retune phase discontinuity is
	// missing — the inter-row phase delta has been constant too long.
	RowFrozenPhase
	// RowMagOutlier: the row's mean magnitude is a MAD outlier against
	// the anchor's rolling window.
	RowMagOutlier
)

// OK reports whether the row is usable.
func (v RowVerdict) OK() bool { return v == RowOK }

// String names the verdict for logs and stats.
func (v RowVerdict) String() string {
	switch v {
	case RowOK:
		return "ok"
	case RowNonFinite:
		return "non-finite"
	case RowDead:
		return "dead"
	case RowStuckTones:
		return "stuck-tones"
	case RowFrozenPhase:
		return "frozen-phase"
	case RowMagOutlier:
		return "mag-outlier"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// QualityConfig tunes the ingest sanity checks. The zero value selects
// the defaults below.
type QualityConfig struct {
	// DeadFloor is the magnitude below which a tone counts as dead
	// (default 1e-18: far under any simulated or real channel gain, far
	// over denormal noise).
	DeadFloor float64
	// StuckRows is how many consecutive identical rows mark a stuck
	// radio (default 4). The first repeat is already suspicious — a
	// retuning radio never reproduces exact complex values — but small
	// runs tolerate duplicated frames from the transport's resend path.
	StuckRows int
	// FrozenRows is how many consecutive near-constant inter-row phase
	// deltas mark a missing retune discontinuity (default 6).
	FrozenRows int
	// FrozenEps is the tolerance (radians) under which two consecutive
	// phase deltas count as "the same" (default 1e-3).
	FrozenEps float64
	// MADWindow is the rolling per-anchor window of row log-magnitudes
	// the outlier gate compares against (default 64 rows).
	MADWindow int
	// MADGate rejects a row whose log10 mean magnitude deviates from
	// the window median by more than this many MADs (default 10). With
	// the madFloor this puts the minimum gate at 1.5 dex (~30x), well
	// past legitimate tag movement (≤ ~1 dex median shift on the paper
	// testbed) but far under injected wrong-power garbage.
	MADGate float64
	// MADMinSamples disables the outlier gate until the window holds at
	// least this many accepted rows (default 16), so cold starts cannot
	// reject legitimate data against an empty history.
	MADMinSamples int
}

func (c *QualityConfig) withDefaults() QualityConfig {
	out := *c
	if out.DeadFloor <= 0 {
		out.DeadFloor = 1e-18
	}
	if out.StuckRows <= 0 {
		out.StuckRows = 4
	}
	if out.FrozenRows <= 0 {
		out.FrozenRows = 6
	}
	if out.FrozenEps <= 0 {
		out.FrozenEps = 1e-3
	}
	if out.MADWindow <= 0 {
		out.MADWindow = 64
	}
	if out.MADGate <= 0 {
		out.MADGate = 10
	}
	if out.MADMinSamples <= 0 {
		out.MADMinSamples = 16
	}
	return out
}

// madFloor keeps the outlier gate sane when an anchor's magnitudes are
// unusually stable: measured band-to-band fading on the paper testbed has
// a per-anchor MAD of 0.1–0.55 dex, so 0.15 dex is a realistic lower
// bound that stops a freakishly calm window from rejecting normal fades.
const madFloor = 0.15

// anchorQState is one anchor's rolling validation history.
type anchorQState struct {
	last      []complex128 // previous accepted row (copied)
	haveLast  bool
	stuckRun  int
	lastPhase float64 // phase of tone 0 of the previous row
	lastDelta float64 // previous inter-row phase delta
	havePrev  bool    // lastPhase valid
	haveDelta bool    // lastDelta valid
	frozenRun int
	// The magnitude window is held twice: window is a ring in arrival
	// order, which decides the entry a full window evicts, and sorted
	// holds the same len(sorted) entries ascending, which medianMAD reads
	// without sorting. Neither ever holds NaN: a row's log magnitude is
	// the log of a mean of non-negative magnitudes, which may overflow to
	// +Inf but is never NaN.
	window []float64
	sorted []float64
	wpos   int
}

// RowValidator validates snapshot rows in arrival order and keeps the
// rolling per-anchor state the stuck/frozen/MAD checks need. It is NOT
// safe for concurrent use; callers serialize (the locserver holds its
// mutex across ingest).
type RowValidator struct {
	cfg   QualityConfig
	state []anchorQState
}

// NewRowValidator returns a validator for the given anchor count.
func NewRowValidator(anchors int, cfg QualityConfig) *RowValidator {
	c := cfg.withDefaults()
	v := &RowValidator{cfg: c, state: make([]anchorQState, anchors)}
	for i := range v.state {
		v.state[i].window = make([]float64, c.MADWindow)
		v.state[i].sorted = make([]float64, 0, c.MADWindow)
	}
	return v
}

// Check validates one row from the given anchor: the per-antenna tag
// tones plus the overheard master tone. Rows must be fed in arrival
// order per anchor — the stuck-tone, frozen-phase and MAD checks compare
// against that anchor's history. Rejected rows do not enter the history
// (a corrupt row must not drag the rolling statistics toward itself).
func (v *RowValidator) Check(anchor int, tones []complex128, master complex128) RowVerdict {
	if anchor < 0 || anchor >= len(v.state) {
		return RowNonFinite
	}
	st := &v.state[anchor]

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
	if maxMag < v.cfg.DeadFloor {
		st.resetRuns()
		return RowDead
	}

	// Stuck tones: exact repetition of the previous row. Real retunes
	// re-randomize the LO phase, so bit-identical rows only come from a
	// frozen buffer (or the transport's resend path, hence the run
	// threshold rather than a single-repeat trip).
	if st.haveLast && sameTones(st.last, tones) {
		st.stuckRun++
		// stuckRun counts repeats; the run length includes the first
		// occurrence, so StuckRows identical rows trip the check.
		if st.stuckRun+1 >= v.cfg.StuckRows {
			return RowStuckTones
		}
	} else {
		st.stuckRun = 0
	}

	// Frozen phase: the inter-row delta of tone 0's phase must jump
	// randomly between retunes. A run of near-identical deltas marks a
	// CFO-locked replay (delta constant but non-zero) or a stuck
	// synthesizer (delta zero) even when magnitudes keep changing.
	phase := cmplx.Phase(tones[0])
	frozen := false
	if st.havePrev {
		delta := wrapPhase(phase - st.lastPhase)
		if st.haveDelta && math.Abs(wrapPhase(delta-st.lastDelta)) < v.cfg.FrozenEps {
			st.frozenRun++
			if st.frozenRun >= v.cfg.FrozenRows {
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

	// Magnitude MAD outlier against the anchor's rolling window.
	logMag := math.Log10(sumMag / float64(len(tones)))
	outlier := false
	if len(st.sorted) >= v.cfg.MADMinSamples {
		med, mad := st.medianMAD()
		if mad < madFloor {
			mad = madFloor
		}
		outlier = math.Abs(logMag-med) > v.cfg.MADGate*mad
	}
	// The magnitude is folded into the window whether or not it tripped
	// the gate: a lone wrong-power row barely moves a 64-row median, while
	// a persistent legitimate level shift (the tag walked away, a second
	// tag joined) becomes the new baseline within half a window instead of
	// being rejected forever against stale history.
	st.push(logMag)
	if outlier {
		return RowMagOutlier
	}

	// Accepted: fold the row into the stuck-tone history.
	st.last = append(st.last[:0], tones...)
	st.haveLast = true
	return RowOK
}

// Reset clears one anchor's rolling history (used when an anchor rejoins
// after quarantine, so stale statistics do not judge fresh data).
func (v *RowValidator) Reset(anchor int) {
	if anchor < 0 || anchor >= len(v.state) {
		return
	}
	st := &v.state[anchor]
	*st = anchorQState{window: st.window, sorted: st.sorted[:0]}
}

func (st *anchorQState) resetRuns() {
	st.haveLast = false
	st.stuckRun = 0
	st.havePrev = false
	st.haveDelta = false
	st.frozenRun = 0
}

// push folds one log magnitude into the anchor's window. While the
// window fills, x is inserted into the sorted copy; once full, the ring
// names the entry x evicts, and x takes its place in the sorted copy with
// one shift of the entries between the two positions. Each step is a
// binary search plus a memmove of at most MADWindow floats.
func (st *anchorQState) push(x float64) {
	old := st.window[st.wpos] // the evicted entry, once the window is full
	st.window[st.wpos] = x
	st.wpos = (st.wpos + 1) % len(st.window)
	s := st.sorted
	if n := len(s); n < len(st.window) {
		i := sort.SearchFloat64s(s, x)
		st.sorted = s[:n+1]
		copy(st.sorted[i+1:], s[i:])
		st.sorted[i] = x
		return
	}
	i := sort.SearchFloat64s(s, old) // s[i] == old: the window holds no NaN
	if x >= old {
		j := i + 1 + sort.SearchFloat64s(s[i+1:], x)
		copy(s[i:j-1], s[i+1:j])
		s[j-1] = x
	} else {
		j := sort.SearchFloat64s(s[:i], x)
		copy(s[j+1:i+1], s[j:i])
		s[j] = x
	}
}

// medianMAD returns the median and the median absolute deviation of the
// anchor's magnitude window in O(window), reading the sorted copy. Both
// statistics take the upper middle element (index n/2) of their sorted
// values. The median is sorted[m], m = n/2. The deviations form two
// ascending runs outward from it, sorted[m]−med, sorted[m+1]−med, … and
// med−sorted[m−1], med−sorted[m−2], …, and the MAD is element m of their
// merge. The differential tests pin both, bit for bit, to a sort-based
// oracle.
func (st *anchorQState) medianMAD() (med, mad float64) {
	s := st.sorted
	n := len(s)
	m := n / 2
	med = s[m]
	if math.IsInf(med, 0) {
		return med, infMAD(s, med)
	}
	// Merge m deviations off the two runs; neither runs dry inside the
	// loop (the upper run holds n−m ≥ m entries, the lower exactly m).
	hi, lo := m, m-1
	for k := 0; k < m; k++ {
		if s[hi]-med <= med-s[lo] {
			hi++
		} else {
			lo--
		}
	}
	switch {
	case hi == n:
		return med, med - s[lo]
	case lo < 0:
		return med, s[hi] - med
	default:
		return med, min(s[hi]-med, med-s[lo])
	}
}

// infMAD is the MAD of a window whose median is infinite, as an ordinary
// sort of the deviations |x−med| would yield it. A window entry equal to
// med deviates by Inf−Inf = NaN, every other entry by +Inf, and a sort
// orders NaN first. So the MAD is NaN when more than n/2 entries equal
// med, and +Inf otherwise, which happens only for an even window whose
// upper half alone is +Inf. Either way the outlier test, a comparison
// against Inf or NaN, rejects nothing.
func infMAD(s []float64, med float64) float64 {
	n := len(s)
	if med > 0 && n%2 == 0 && s[n/2-1] < med {
		return math.Inf(1)
	}
	return math.Abs(med - med) // Inf−Inf: the NaN the deviations hold
}

func finiteTone(z complex128) bool {
	re, im := real(z), imag(z)
	return !math.IsNaN(re) && !math.IsInf(re, 0) && !math.IsNaN(im) && !math.IsInf(im, 0)
}

func finiteTones(tones []complex128) bool {
	for _, z := range tones {
		if !finiteTone(z) {
			return false
		}
	}
	return true
}

// sameTones compares rows by exact bit pattern (avoiding float ==
// semantics for NaN; NaN rows never reach this check).
func sameTones(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// wrapPhase maps an angle to (−π, π].
func wrapPhase(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
