// Package fingerprint implements the KNN fallback plane of the
// degradation ladder (DESIGN.md §16): a site-survey database of
// per-anchor RSSI signatures on a reference grid, matched against
// median+EWMA-filtered live RSSI with weighted K-nearest-neighbor
// interpolation.
//
// Fingerprinting is the industry-standard CSI-free localization
// baseline: it needs no phase coherence, no reference anchor and no
// per-round quorum beyond "some anchors heard the tag", so it keeps
// working in exactly the regimes where BLoc's CSI pipeline degrades —
// unmet quorums, quarantined or silent reference anchors, overload
// demotion and dead cells. Its accuracy sits between the CSI grid
// search (decimeters) and the RSSI-trilateration centroid floor
// (room-scale): the survey grid memorizes the deployment's real
// multipath field instead of assuming the free-space path-loss model
// trilateration needs.
//
// Signatures are partial-match friendly: a live signature may carry
// NaN for anchors that did not report this round, and lookup distances
// are normalized per overlapping anchor, so a two-anchor observation
// still ranks reference points fairly.
package fingerprint

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"bloc/internal/csi"
	"bloc/internal/geom"
)

// MaxPoints bounds a database's reference grid; a forged file cannot
// demand a larger allocation (the codec enforces it too).
const MaxPoints = 16384

// MaxAnchors bounds the per-point signature width (the wire protocol's
// anchor ID space).
const MaxAnchors = 256

// RefPoint is one surveyed reference location: its position and the
// median filtered RSSI (dB) each anchor observed there. NaN marks an
// anchor that never produced a usable sample at this point.
type RefPoint struct {
	Pos  geom.Point
	RSSI []float64 // len == DB.Anchors, dB
}

// DB is a site-survey fingerprint database.
type DB struct {
	Room    geom.Rect
	Anchors int
	StepM   float64 // survey grid pitch, informational
	Points  []RefPoint
}

// Validate checks the structural invariants the codec and Survey
// promise: a sane room, a bounded grid, full-width signatures and
// finite-or-NaN dB values.
func (db *DB) Validate() error {
	if db.Anchors < 1 || db.Anchors > MaxAnchors {
		return fmt.Errorf("fingerprint: %d anchors outside [1,%d]", db.Anchors, MaxAnchors)
	}
	if len(db.Points) == 0 {
		return errors.New("fingerprint: empty reference grid")
	}
	if len(db.Points) > MaxPoints {
		return fmt.Errorf("fingerprint: %d reference points exceed limit %d", len(db.Points), MaxPoints)
	}
	if !(db.Room.Width() > 0 && db.Room.Height() > 0) { // NaN-proof
		return fmt.Errorf("fingerprint: degenerate room %v", db.Room)
	}
	if db.StepM < 0 || math.IsNaN(db.StepM) || math.IsInf(db.StepM, 0) {
		return fmt.Errorf("fingerprint: bad grid step %v", db.StepM)
	}
	for i, p := range db.Points {
		if len(p.RSSI) != db.Anchors {
			return fmt.Errorf("fingerprint: point %d has %d signature entries, want %d", i, len(p.RSSI), db.Anchors)
		}
		if math.IsNaN(p.Pos.X) || math.IsNaN(p.Pos.Y) || math.IsInf(p.Pos.X, 0) || math.IsInf(p.Pos.Y, 0) {
			return fmt.Errorf("fingerprint: point %d at non-finite position", i)
		}
		for a, v := range p.RSSI {
			if math.IsNaN(v) {
				continue // legitimately unobserved
			}
			if math.IsInf(v, 0) || v < -250 || v > 100 {
				return fmt.Errorf("fingerprint: point %d anchor %d has implausible RSSI %v dB", i, a, v)
			}
		}
	}
	return nil
}

// Signature extracts the per-anchor RSSI signature (dB) from one CSI
// snapshot: the mean |h| over the anchor's present bands and antennas,
// in the same units the survey recorded. Anchors with no present band
// (or no finite tone) get NaN — the partial-signature marker Locate
// understands.
func Signature(snap *csi.Snapshot) []float64 {
	anchors := snap.NumAnchors()
	sig := make([]float64, anchors)
	for i := range sig {
		sum, n := 0.0, 0
		for k := range snap.Bands {
			if !snap.Present(k, i) {
				continue
			}
			for _, h := range snap.Tag[k][i] {
				amp := cmplxAbs(h)
				if math.IsNaN(amp) || math.IsInf(amp, 0) || amp <= 0 {
					continue
				}
				sum += amp
				n++
			}
		}
		if n == 0 {
			sig[i] = math.NaN()
			continue
		}
		sig[i] = 20 * math.Log10(sum/float64(n))
	}
	return sig
}

func cmplxAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

// A KNN lookup blends the lookupK nearest reference points. A reference
// point is comparable only when at least lookupMinAnchors anchors are
// finite in BOTH the live signature and the point; lookups observing
// fewer anchors fail.
const (
	lookupK          = 4
	lookupMinAnchors = 2
)

// ErrNoMatch is returned when the live signature overlaps too few
// anchors with every reference point — the fingerprint rung cannot
// serve this round and the caller should fall to the next rung.
var ErrNoMatch = errors.New("fingerprint: signature overlaps too few anchors with the survey")

// Locate runs a weighted-KNN lookup of a live signature against the
// reference grid: reference points are ranked by RMS dB distance over
// the anchors both sides observed (partial signatures compare fairly
// because the distance is normalized per overlapping anchor), and the
// lookupK nearest positions are blended with inverse-distance weights.
// Ties rank by grid order, so equal inputs return bit-equal fixes.
func (db *DB) Locate(sig []float64) (geom.Point, error) {
	if len(sig) != db.Anchors {
		return geom.Point{}, fmt.Errorf("fingerprint: signature width %d, survey has %d anchors", len(sig), db.Anchors)
	}
	type match struct {
		idx  int
		dist float64
	}
	matches := make([]match, 0, len(db.Points))
	for idx, rp := range db.Points {
		sumSq, overlap := 0.0, 0
		for a := 0; a < db.Anchors; a++ {
			lv, rv := sig[a], rp.RSSI[a]
			if math.IsNaN(lv) || math.IsNaN(rv) {
				continue
			}
			d := lv - rv
			sumSq += d * d
			overlap++
		}
		if overlap < lookupMinAnchors {
			continue
		}
		matches = append(matches, match{idx: idx, dist: math.Sqrt(sumSq / float64(overlap))})
	}
	if len(matches) == 0 {
		return geom.Point{}, ErrNoMatch
	}
	sort.Slice(matches, func(i, j int) bool {
		//lint:ignore floateq deterministic tie-break needs the exact compare
		if matches[i].dist != matches[j].dist {
			return matches[i].dist < matches[j].dist
		}
		return matches[i].idx < matches[j].idx
	})
	k := min(lookupK, len(matches))
	// Inverse-distance weights with a floor: an exact signature match
	// must not divide by zero, and a small floor keeps the blend from
	// collapsing onto one grid point under measurement noise.
	const distFloorDB = 0.25
	var wsum, x, y float64
	for _, m := range matches[:k] {
		w := 1 / (m.dist + distFloorDB)
		p := db.Points[m.idx].Pos
		wsum += w
		x += w * p.X
		y += w * p.Y
	}
	return geom.Pt(x/wsum, y/wsum), nil
}

// FilterOptions tunes the live-RSSI filter. The zero value selects the
// documented defaults.
type FilterOptions struct {
	// Window is the median window length in rounds (default 5).
	Window int
	// Alpha is the EWMA smoothing weight applied to the rolling median
	// (default 0.5; 1 disables smoothing).
	Alpha float64
}

func (o FilterOptions) withDefaults() FilterOptions {
	if o.Window <= 0 {
		o.Window = 5
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.5
	}
	return o
}

// Filter is the per-tag live-RSSI conditioning pipeline the SNIPPETS
// exemplars ship: a short per-anchor median window knocks out
// single-round outliers (a burst of constructive multipath, one bad
// gain step), then an EWMA smooths the medians across rounds. Not safe
// for concurrent use; embedders keep one Filter per tag under their
// own lock.
type Filter struct {
	opts FilterOptions
	hist [][]float64 // per anchor, most recent last, NaN-free
	ewma []float64
	warm []bool
}

// NewFilter builds a filter for the given signature width.
func NewFilter(anchors int, opts FilterOptions) *Filter {
	f := &Filter{
		opts: opts.withDefaults(),
		hist: make([][]float64, anchors),
		ewma: make([]float64, anchors),
		warm: make([]bool, anchors),
	}
	return f
}

// Observe feeds one round's raw signature (NaN entries are skipped —
// that anchor just did not report this round).
func (f *Filter) Observe(sig []float64) {
	for a := 0; a < len(f.hist) && a < len(sig); a++ {
		v := sig[a]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		h := append(f.hist[a], v)
		if len(h) > f.opts.Window {
			h = h[len(h)-f.opts.Window:]
		}
		f.hist[a] = h
		med := median(h)
		if !f.warm[a] {
			f.ewma[a] = med
			f.warm[a] = true
		} else {
			f.ewma[a] = f.opts.Alpha*med + (1-f.opts.Alpha)*f.ewma[a]
		}
	}
}

// Signature returns the filtered signature: per-anchor EWMA of the
// rolling median, NaN for anchors never observed.
func (f *Filter) Signature() []float64 {
	out := make([]float64, len(f.hist))
	for a := range out {
		if f.warm[a] {
			out[a] = f.ewma[a]
		} else {
			out[a] = math.NaN()
		}
	}
	return out
}

// median of a non-empty slice (input is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}

// SurveyOptions tunes offline survey generation. The zero value selects
// the documented defaults.
type SurveyOptions struct {
	// StepM is the reference grid pitch in meters (default 0.5).
	StepM float64
	// Samples is how many independent soundings are medianed per
	// reference point (default 3).
	Samples int
}

func (o SurveyOptions) withDefaults() SurveyOptions {
	if o.StepM <= 0 {
		o.StepM = 0.5
	}
	if o.Samples <= 0 {
		o.Samples = 3
	}
	return o
}

// surveyMarginM insets the survey grid from the walls: anchors sit on
// walls and a reference point inside one is meaningless.
const surveyMarginM float64 = 0.25

// Survey builds a fingerprint DB by walking a reference grid over the
// room and recording the median signature of several soundings at each
// point. The sounding itself is delegated to the sample callback —
// offline generation forks a deterministic rfsim deployment per
// (point, repetition), a hardware campaign would replay captured
// snapshots — so the survey logic never depends on the radio stack.
func Survey(room geom.Rect, anchors int, sample func(point, rep int, p geom.Point) *csi.Snapshot, opts SurveyOptions) (*DB, error) {
	if anchors < 1 || anchors > MaxAnchors {
		return nil, fmt.Errorf("fingerprint: %d anchors outside [1,%d]", anchors, MaxAnchors)
	}
	o := opts.withDefaults()
	inner := room.Inset(surveyMarginM)
	if !(inner.Width() > 0 && inner.Height() > 0) {
		return nil, fmt.Errorf("fingerprint: margin %.2f m leaves no surveyable area in %v", surveyMarginM, room)
	}
	db := &DB{Room: room, Anchors: anchors, StepM: o.StepM}
	idx := 0
	for y := inner.Min.Y; y <= inner.Max.Y+1e-9; y += o.StepM {
		for x := inner.Min.X; x <= inner.Max.X+1e-9; x += o.StepM {
			if len(db.Points) >= MaxPoints {
				return nil, fmt.Errorf("fingerprint: grid exceeds %d points; raise StepM", MaxPoints)
			}
			p := geom.Pt(x, y)
			perAnchor := make([][]float64, anchors)
			for rep := 0; rep < o.Samples; rep++ {
				snap := sample(idx, rep, p)
				if snap == nil {
					continue
				}
				sig := Signature(snap)
				for a := 0; a < anchors && a < len(sig); a++ {
					if !math.IsNaN(sig[a]) {
						perAnchor[a] = append(perAnchor[a], sig[a])
					}
				}
			}
			rssi := make([]float64, anchors)
			for a := range rssi {
				if len(perAnchor[a]) == 0 {
					rssi[a] = math.NaN()
					continue
				}
				rssi[a] = median(perAnchor[a])
			}
			db.Points = append(db.Points, RefPoint{Pos: p, RSSI: rssi})
			idx++
		}
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return db, nil
}
