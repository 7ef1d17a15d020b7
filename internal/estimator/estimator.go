// Package estimator turns one served round into a fix: it is the
// localization callback behind every bloc-server cell. It owns the
// state bloc-server keeps on top of the locserver — the array
// calibration and, per tag, a Kalman tracker, its update clock, a
// gating hysteresis and a live-RSSI fingerprint filter — and walks the
// degradation ladder (DESIGN.md §16) the server admitted the round at:
// gated or full CSI search, fingerprint KNN, or the RSSI centroid.
package estimator

import (
	"log/slog"
	"sync"
	"time"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/durable"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/track"
)

// maxTags bounds the per-tag map. Like locserver's per-tag fix history
// it is cleared wholesale at the cap: a tag whose state was dropped
// starts a fresh track on its next fix, and a stream of one-shot tag
// IDs can no longer grow the process without bound.
const maxTags = 8192

// tagState is one tag's estimator state.
type tagState struct {
	trk  *track.Filter       // Kalman tracker; nil until the tag's first fix
	last int64               // unix nanos of the tracker's last update, accepted or gated out
	gate *core.GatePolicy    // gating hysteresis; nil until the tag's first tracked round
	fp   *fingerprint.Filter // live-RSSI filter; nil without a fingerprint survey
}

// Estimator localizes the rounds of one cell. Locate is safe for
// concurrent use by the cell's fix workers.
type Estimator struct {
	eng  *core.Engine
	fpdb *fingerprint.DB // fingerprint rung survey; nil disables the rung
	log  *slog.Logger

	mu   sync.Mutex
	cal  *core.Calibration    // guarded by mu; nil until calibrated or restored
	tags map[uint16]*tagState // guarded by mu
	now  func() time.Time
}

// New returns an estimator over eng. fpdb enables the fingerprint rung
// (nil serves coarse rounds at the centroid); logger defaults to
// slog.Default().
func New(eng *core.Engine, fpdb *fingerprint.DB, logger *slog.Logger) *Estimator {
	if logger == nil {
		logger = slog.Default()
	}
	return &Estimator{
		eng:  eng,
		fpdb: fpdb,
		log:  logger,
		tags: make(map[uint16]*tagState),
		now:  time.Now,
	}
}

// Locate serves one completed round: the locserver.Config.OnSnapshot
// callback.
func (e *Estimator) Locate(info locserver.RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
	e.observeRSSI(info.Tag, snap)
	// Degraded rounds carry too few correction-grade rows for the CSI
	// pipeline; serve them at the ladder rung the server admitted them
	// at — fingerprint KNN when a survey is loaded, the RSSI-
	// trilateration centroid otherwise (or when the live signature
	// overlaps too few surveyed anchors).
	if info.Coarse {
		if info.Tier == locserver.TierFingerprint {
			if p, err := e.fingerprintFix(info.Tag); err == nil {
				return e.smooth(info.Tag, p), nil
			}
		}
		res, err := e.eng.LocateRSSI(snap)
		if err != nil {
			return geom.Point{}, err
		}
		return e.smooth(info.Tag, res.Estimate), nil
	}
	if cal := e.Calibration(); cal != nil {
		corrected, err := cal.Apply(snap)
		if err == nil {
			snap = corrected
		} else {
			e.log.Warn("calibration apply failed, using raw snapshot", "err", err)
		}
	}
	// Tracked tags localize through the prior-gated coarse-to-fine
	// search (DESIGN.md §14); everything else takes the full grid.
	var prior *core.Prior
	if info.Tracked {
		prior = e.prior(info.Tag)
	}
	res, err := e.eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref, Prior: prior})
	if err != nil {
		return geom.Point{}, err
	}
	if prior != nil {
		e.observe(info.Tag, res)
	}
	return e.smooth(info.Tag, res.Estimate), nil
}

// stateLocked returns the tag's state, creating it — and clearing the
// whole map first when it is full. Caller holds e.mu.
func (e *Estimator) stateLocked(tag uint16) *tagState {
	st := e.tags[tag]
	if st == nil {
		if len(e.tags) >= maxTags {
			e.tags = make(map[uint16]*tagState)
		}
		st = &tagState{}
		e.tags[tag] = st
	}
	return st
}

// observeRSSI feeds a round's raw RSSI signature into the tag's live
// median+EWMA filter — on every round, not just degraded ones, so the
// fingerprint rung has a warm signature the moment the ladder demotes
// the tag.
func (e *Estimator) observeRSSI(tag uint16, snap *csi.Snapshot) {
	if e.fpdb == nil {
		return
	}
	sig := fingerprint.Signature(snap)
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stateLocked(tag)
	if st.fp == nil {
		st.fp = fingerprint.NewFilter(e.fpdb.Anchors, fingerprint.FilterOptions{})
	}
	st.fp.Observe(sig)
}

// fingerprintFix runs the KNN rung for a tag. ErrNoMatch (or a cold
// filter) tells the caller to fall to the centroid floor.
func (e *Estimator) fingerprintFix(tag uint16) (geom.Point, error) {
	var sig []float64
	e.mu.Lock()
	if st := e.tags[tag]; st != nil && st.fp != nil {
		sig = st.fp.Signature()
	}
	e.mu.Unlock()
	if e.fpdb == nil || sig == nil {
		return geom.Point{}, fingerprint.ErrNoMatch
	}
	return e.fpdb.Locate(sig)
}

// prior derives the gated-search prior for a tag from its tracker's 1σ
// confidence ellipse, scaled by the tag's GatePolicy hysteresis. It
// returns nil — run the full grid — when the tag has no initialized
// track or the covariance is unusable.
func (e *Estimator) prior(tag uint16) *core.Prior {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.tags[tag]
	if st == nil || st.trk == nil {
		return nil
	}
	ell, ok := st.trk.ConfidenceEllipse(1)
	if !ok {
		return nil
	}
	if st.gate == nil {
		st.gate = core.NewGatePolicy()
	}
	p := st.gate.Prior(ell.Center, ell.SemiMajor, ell.SemiMinor, ell.Theta)
	return &p
}

// observe feeds a fix outcome back into the tag's gating hysteresis.
func (e *Estimator) observe(tag uint16, res *core.Result) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.tags[tag]; st != nil && st.gate != nil {
		st.gate.Observe(res)
	}
}

// Calibration returns the current calibration (nil when cold).
func (e *Estimator) Calibration() *core.Calibration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cal
}

// SetCalibration installs the array calibration applied to CSI rounds.
func (e *Estimator) SetCalibration(cal *core.Calibration) {
	e.mu.Lock()
	e.cal = cal
	e.mu.Unlock()
}

// smooth runs one raw fix through the tag's Kalman tracker and returns
// the smoothed position. A rejected (gated or non-finite) fix leaves the
// coasted prediction as the estimate. The filter predicts across dt even
// for a gated-out fix, so the update clock advances whenever Update
// succeeds, accepted or not; only an erroring update leaves it alone.
func (e *Estimator) smooth(tag uint16, raw geom.Point) geom.Point {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stateLocked(tag)
	if st.trk == nil {
		f, err := track.New(track.DefaultConfig())
		if err != nil {
			return raw // unreachable with DefaultConfig; fail open
		}
		st.trk = f
	}
	now := e.now().UnixNano()
	dt := 0.1
	if st.last != 0 && now > st.last {
		dt = float64(now-st.last) / float64(time.Second)
	}
	pos, ok, err := st.trk.Update(raw, dt)
	if err == nil {
		st.last = now
	}
	if err != nil || !ok {
		if st.trk.Initialized() {
			return pos // coasted prediction
		}
		return raw
	}
	return pos
}

// Export snapshots the calibration and every tracker: the
// locserver.CheckpointConfig.Export hook.
func (e *Estimator) Export() durable.External {
	e.mu.Lock()
	defer e.mu.Unlock()
	var ext durable.External
	if e.cal != nil {
		ext.Calib = e.cal.ExportRotors()
	}
	for tag, st := range e.tags {
		if st.trk == nil {
			continue
		}
		fs := st.trk.Export()
		ext.Tracks = append(ext.Tracks, durable.TagTrack{
			Tag:             tag,
			Initialized:     fs.Initialized,
			Misses:          fs.Misses,
			LastFixUnixNano: st.last,
			X:               fs.X,
			P:               fs.P,
		})
	}
	return ext
}

// Restore rebuilds the calibration and trackers from a restored
// snapshot: the locserver.CheckpointConfig.Restore hook. Invalid pieces
// are skipped individually: a poisoned track must not take the
// calibration down with it.
func (e *Estimator) Restore(ext durable.External) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ext.Calib != nil {
		cal, err := core.RestoreCalibration(ext.Calib)
		if err != nil {
			e.log.Warn("restored calibration rejected, will recalibrate", "err", err)
		} else {
			e.cal = cal
			e.log.Info("calibration restored", "anchors", len(ext.Calib),
				"max_err_deg", cal.MaxErrorDeg())
		}
	}
	for _, tr := range ext.Tracks {
		f, err := track.New(track.DefaultConfig())
		if err != nil {
			return err
		}
		fs := track.FilterState{Initialized: tr.Initialized, Misses: tr.Misses, X: tr.X, P: tr.P}
		if err := f.Restore(fs); err != nil {
			e.log.Warn("restored track rejected", "tag", tr.Tag, "err", err)
			continue
		}
		st := e.stateLocked(tr.Tag)
		st.trk = f
		st.last = tr.LastFixUnixNano
	}
	return nil
}
