// Command bloc-server runs BLoc's central localization server: it accepts
// anchor connections, assembles per-round CSI snapshots and prints a fix
// per completed round (§3's central server as a real network service).
//
// Usage:
//
//	bloc-server [-listen 127.0.0.1:7100] [-anchors 4] [-antennas 4] [-seed 1]
//	            [-round-deadline 2s] [-min-anchors 2] [-min-bands 1]
//	            [-heartbeat 2s] [-stats 1m] [-calibrate]
//	            [-state-dir dir] [-checkpoint 2s] [-state-ttl 1h]
//	            [-drain-timeout 10s] [-fix-workers 2] [-fix-queue 64]
//	            [-fix-budget 0] [-adaptive-deadline] [-cells 1]
//	            [-breaker-threshold 3] [-breaker-cooldown 2s]
//	            [-fingerprint site.fpdb]
//
// The seed must match the anchors' seed: it defines the shared simulated
// deployment geometry the localization engine needs. Rounds that miss the
// deadline complete from a partial snapshot when at least -min-anchors
// anchors contributed -min-bands usable bands; set -round-deadline 0 to
// wait forever for every row.
//
// With -state-dir the server becomes crash-safe (DESIGN.md §11): every
// -checkpoint interval it persists anchor health, the elected reference,
// the calibration rotors and the per-tag Kalman tracks to a dual-slot
// snapshot store, and on startup it warm-restores from the newest valid
// snapshot no older than -state-ttl. On SIGINT/SIGTERM the server drains:
// it stops admitting new rounds, finishes the in-flight ones (bounded by
// -drain-timeout), writes a final checkpoint and exits; a second signal
// forces immediate termination.
//
// The overload plane (DESIGN.md §12) is always on: fix computation runs
// on -fix-workers goroutines behind a bounded queue of -fix-queue jobs
// whose depth drives hysteretic admission control (degrade to the coarse
// fix, then shed untracked tags first). -fix-budget caps first-row-to-
// broadcast latency per round — a fix that would arrive later than the
// budget is dropped, not delivered stale. -adaptive-deadline tightens the
// round deadline to the live p95 arrival latency of punctual anchors and
// excludes hysteretically-marked laggy anchors from quorum waits.
//
// With -cells N (N > 1) the server runs as a supervised fleet (DESIGN.md
// §15): N fault-isolated cells, each owning -anchors anchors, its own
// engine and tag state, listening on consecutive ports from -listen and
// checkpointing to -state-dir/cell-<i>. A cell that panics is restarted
// by its supervisor with exponential backoff and warm-restores from its
// own snapshots; while it is down, its tags degrade to flagged coarse
// fallback fixes computed by a neighbor cell. Writes to every anchor
// link sit behind a per-link circuit breaker: -breaker-threshold
// consecutive failures open it (skipping further writes), and after
// -breaker-cooldown a single half-open probe decides whether it closes.
//
// With -fingerprint the server loads a site-survey fingerprint database
// (bloc-dataset survey) and enables the fingerprint rung of the
// degradation ladder (DESIGN.md §16): degraded rounds — unmet quorums,
// overload demotions, a down cell's fallback fixes — are served by a
// weighted-KNN lookup over the tag's median+EWMA-filtered live RSSI
// instead of falling straight to the RSSI-trilateration centroid. Every
// fix carries an explicit quality tier (gated-csi, full-csi,
// fingerprint, centroid), visible in the fix logs and the tier_*
// -stats keys. The survey's seed must match -seed.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/durable"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/testbed"
	"bloc/internal/track"
)

// tagState is the durable per-process state bloc-server owns on top of
// the locserver: the array calibration and one Kalman tracker per tag.
type tagState struct {
	fpdb *fingerprint.DB // fingerprint rung survey; nil disables the rung

	mu    sync.Mutex
	cal   *core.Calibration              // guarded by mu; nil until calibrated or restored
	trks  map[uint16]*track.Filter       // guarded by mu
	last  map[uint16]int64               // unix nanos of each tag's last filter update, accepted or gated out; guarded by mu
	gates map[uint16]*core.GatePolicy    // per-tag gating hysteresis; guarded by mu
	fps   map[uint16]*fingerprint.Filter // per-tag live-RSSI filters; guarded by mu
	now   func() time.Time
}

func newTagState(fpdb *fingerprint.DB) *tagState {
	return &tagState{
		fpdb:  fpdb,
		trks:  make(map[uint16]*track.Filter),
		last:  make(map[uint16]int64),
		gates: make(map[uint16]*core.GatePolicy),
		fps:   make(map[uint16]*fingerprint.Filter),
		now:   time.Now,
	}
}

// observeRSSI feeds a round's raw RSSI signature into the tag's live
// median+EWMA filter — on every round, not just degraded ones, so the
// fingerprint rung has a warm signature the moment the ladder demotes
// the tag.
func (ts *tagState) observeRSSI(tag uint16, snap *csi.Snapshot) {
	if ts.fpdb == nil {
		return
	}
	sig := fingerprint.Signature(snap)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	filt := ts.fps[tag]
	if filt == nil {
		filt = fingerprint.NewFilter(ts.fpdb.Anchors, fingerprint.FilterOptions{})
		ts.fps[tag] = filt
	}
	filt.Observe(sig)
}

// fingerprintFix runs the KNN rung for a tag. ErrNoMatch (or a cold
// filter) tells the caller to fall to the centroid floor.
func (ts *tagState) fingerprintFix(tag uint16) (geom.Point, error) {
	var sig []float64
	ts.mu.Lock()
	if filt := ts.fps[tag]; filt != nil {
		sig = filt.Signature()
	}
	ts.mu.Unlock()
	if ts.fpdb == nil || sig == nil {
		return geom.Point{}, fingerprint.ErrNoMatch
	}
	return ts.fpdb.Locate(sig)
}

// prior derives the gated-search prior for a tag from its tracker's 1σ
// confidence ellipse, scaled by the tag's GatePolicy hysteresis. It
// returns nil — run the full grid — when the tag has no initialized
// track or the covariance is unusable.
func (ts *tagState) prior(tag uint16) *core.Prior {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	f := ts.trks[tag]
	if f == nil {
		return nil
	}
	ell, ok := f.ConfidenceEllipse(1)
	if !ok {
		return nil
	}
	g := ts.gates[tag]
	if g == nil {
		g = core.NewGatePolicy()
		ts.gates[tag] = g
	}
	p := g.Prior(ell.Center, ell.SemiMajor, ell.SemiMinor, ell.Theta)
	return &p
}

// observe feeds a fix outcome back into the tag's gating hysteresis.
func (ts *tagState) observe(tag uint16, res *core.Result) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if g := ts.gates[tag]; g != nil {
		g.Observe(res)
	}
}

// calibration returns the current calibration (nil when cold).
func (ts *tagState) calibration() *core.Calibration {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.cal
}

func (ts *tagState) setCalibration(cal *core.Calibration) {
	ts.mu.Lock()
	ts.cal = cal
	ts.mu.Unlock()
}

// smooth runs one raw fix through the tag's Kalman tracker and returns
// the smoothed position. A rejected (gated or non-finite) fix leaves the
// coasted prediction as the estimate. The filter predicts across dt even
// for a gated-out fix, so the update clock advances whenever Update
// succeeds, accepted or not; only an erroring update leaves it alone.
func (ts *tagState) smooth(tag uint16, raw geom.Point) geom.Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	f := ts.trks[tag]
	if f == nil {
		nf, err := track.New(track.DefaultConfig())
		if err != nil {
			return raw // unreachable with DefaultConfig; fail open
		}
		f = nf
		ts.trks[tag] = f
	}
	now := ts.now().UnixNano()
	dt := 0.1
	if last := ts.last[tag]; last != 0 && now > last {
		dt = float64(now-last) / float64(time.Second)
	}
	pos, ok, err := f.Update(raw, dt)
	if err == nil {
		ts.last[tag] = now
	}
	if err != nil || !ok {
		if f.Initialized() {
			return pos // coasted prediction
		}
		return raw
	}
	return pos
}

// export snapshots the calibration and every tracker for a checkpoint.
func (ts *tagState) export() durable.External {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var ext durable.External
	if ts.cal != nil {
		ext.Calib = ts.cal.ExportRotors()
	}
	for tag, f := range ts.trks {
		st := f.Export()
		ext.Tracks = append(ext.Tracks, durable.TagTrack{
			Tag:             tag,
			Initialized:     st.Initialized,
			Misses:          st.Misses,
			LastFixUnixNano: ts.last[tag],
			X:               st.X,
			P:               st.P,
		})
	}
	return ext
}

// restore rebuilds the calibration and trackers from a restored
// snapshot. Invalid pieces are skipped individually: a poisoned track
// must not take the calibration down with it.
func (ts *tagState) restore(ext durable.External, logger *slog.Logger) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ext.Calib != nil {
		cal, err := core.RestoreCalibration(ext.Calib)
		if err != nil {
			logger.Warn("restored calibration rejected, will recalibrate", "err", err)
		} else {
			ts.cal = cal
			logger.Info("calibration restored", "anchors", len(ext.Calib),
				"max_err_deg", cal.MaxErrorDeg())
		}
	}
	for _, tr := range ext.Tracks {
		f, err := track.New(track.DefaultConfig())
		if err != nil {
			return err
		}
		st := track.FilterState{Initialized: tr.Initialized, Misses: tr.Misses, X: tr.X, P: tr.P}
		if err := f.Restore(st); err != nil {
			logger.Warn("restored track rejected", "tag", tr.Tag, "err", err)
			continue
		}
		ts.trks[tr.Tag] = f
		ts.last[tr.Tag] = tr.LastFixUnixNano
	}
	return nil
}

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7100", "listen address")
		anchors   = flag.Int("anchors", 4, "number of anchors")
		antennas  = flag.Int("antennas", 4, "antennas per anchor")
		seed      = flag.Uint64("seed", 1, "shared deployment seed")
		deadline  = flag.Duration("round-deadline", 2*time.Second, "partial-round deadline (0 waits forever)")
		minAnch   = flag.Int("min-anchors", 2, "quorum: anchors required at the deadline")
		minBands  = flag.Int("min-bands", 1, "quorum: usable bands per counted anchor")
		heartbeat = flag.Duration("heartbeat", 2*time.Second, "anchor liveness probe interval (0 disables)")
		statsIvl  = flag.Duration("stats", time.Minute, "engine/server stats log interval (0 disables)")
		calibrate = flag.Bool("calibrate", false, "estimate array calibration at startup (skipped when restored)")

		stateDir  = flag.String("state-dir", "", "durable snapshot directory (empty disables checkpointing)")
		ckptIvl   = flag.Duration("checkpoint", 2*time.Second, "checkpoint interval")
		stateTTL  = flag.Duration("state-ttl", time.Hour, "discard snapshots older than this on restore")
		drainWait = flag.Duration("drain-timeout", 10*time.Second, "max time to finish in-flight rounds on shutdown")

		fixWorkers  = flag.Int("fix-workers", 2, "fix-computation workers draining the bounded queue")
		fixQueue    = flag.Int("fix-queue", 64, "bounded fix-queue depth (admission-control watermarks derive from it)")
		fixBudget   = flag.Duration("fix-budget", 0, "per-round latency budget first row→broadcast; exhausted fixes are dropped (0 disables)")
		adaptiveDdl = flag.Bool("adaptive-deadline", false, "adapt the round deadline to the live p95 of punctual anchors (requires -round-deadline > 0)")

		cells        = flag.Int("cells", 1, "supervised fault-isolated cells; >1 shards -anchors-per-cell across consecutive ports (DESIGN.md §15)")
		brkThreshold = flag.Int("breaker-threshold", 3, "consecutive send failures opening an anchor link's circuit breaker (<0 disables)")
		brkCooldown  = flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before the half-open probe")
		fpPath       = flag.String("fingerprint", "", "site-survey fingerprint DB (bloc-dataset survey); enables the ladder's fingerprint rung")
	)
	flag.Parse()

	env := testbed.PaperEnvironment(*seed)
	cfg := testbed.PaperConfig(*seed)
	cfg.Anchors = *anchors
	cfg.Antennas = *antennas
	dep, err := testbed.New(env, cfg)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		log.Fatal(err)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var fpdb *fingerprint.DB
	if *fpPath != "" {
		fpdb, err = fingerprint.ReadFile(*fpPath)
		if err != nil {
			log.Fatal(err)
		}
		if fpdb.Anchors != *anchors {
			log.Fatalf("-fingerprint %s surveyed %d anchors, deployment has %d per cell",
				*fpPath, fpdb.Anchors, *anchors)
		}
		logger.Info("fingerprint survey loaded", "path", *fpPath,
			"points", len(fpdb.Points), "anchors", fpdb.Anchors, "step_m", fpdb.StepM)
	}

	if *cells > 1 {
		runFleet(fleetOpts{
			cells: *cells, listen: *listen, dep: dep, logger: logger,
			anchors: *anchors, antennas: *antennas, seed: *seed,
			deadline: *deadline, minAnchors: *minAnch, minBands: *minBands,
			heartbeat: *heartbeat, statsIvl: *statsIvl, calibrate: *calibrate,
			stateDir: *stateDir, ckptIvl: *ckptIvl, stateTTL: *stateTTL,
			drainWait: *drainWait, fixWorkers: *fixWorkers, fixQueue: *fixQueue,
			fixBudget: *fixBudget, adaptiveDdl: *adaptiveDdl,
			breaker: locserver.BreakerConfig{Threshold: *brkThreshold, Cooldown: *brkCooldown},
			fpdb:    fpdb,
		})
		return
	}

	ts := newTagState(fpdb)

	var ckpt *locserver.CheckpointConfig
	if *stateDir != "" {
		store, err := durable.Open(*stateDir)
		if err != nil {
			log.Fatal(err)
		}
		ckpt = &locserver.CheckpointConfig{
			Store:    store,
			Interval: *ckptIvl,
			StateTTL: *stateTTL,
			Export:   ts.export,
			Restore: func(ext durable.External) error {
				return ts.restore(ext, logger)
			},
		}
	}

	srv, err := locserver.New(*listen, locserver.Config{
		Anchors:           *anchors,
		Antennas:          *antennas,
		Bands:             dep.Bands,
		RoundDeadline:     *deadline,
		MinAnchors:        *minAnch,
		MinBands:          *minBands,
		HeartbeatInterval: *heartbeat,
		Checkpoint:        ckpt,
		FixWorkers:        *fixWorkers,
		FixQueueDepth:     *fixQueue,
		FixBudget:         *fixBudget,
		AdaptiveDeadline:  *adaptiveDdl,
		Breaker:           locserver.BreakerConfig{Threshold: *brkThreshold, Cooldown: *brkCooldown},
		Fingerprint:       fpdb != nil,
		OnSnapshot: func(info locserver.RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			ts.observeRSSI(info.Tag, snap)
			// Degraded rounds carry too few correction-grade rows for the
			// CSI pipeline; serve them at the ladder rung the server
			// admitted them at — fingerprint KNN when a survey is loaded,
			// the RSSI-trilateration centroid otherwise (or when the live
			// signature overlaps too few surveyed anchors).
			if info.Coarse {
				if info.Tier == locserver.TierFingerprint {
					if p, err := ts.fingerprintFix(info.Tag); err == nil {
						return ts.smooth(info.Tag, p), nil
					}
				}
				res, err := eng.LocateRSSI(snap)
				if err != nil {
					return geom.Point{}, err
				}
				return ts.smooth(info.Tag, res.Estimate), nil
			}
			if cal := ts.calibration(); cal != nil {
				corrected, err := cal.Apply(snap)
				if err == nil {
					snap = corrected
				} else {
					logger.Warn("calibration apply failed, using raw snapshot", "err", err)
				}
			}
			// Tracked tags localize through the prior-gated coarse-to-fine
			// search (DESIGN.md §14); everything else takes the full grid.
			var prior *core.Prior
			if info.Tracked {
				prior = ts.prior(info.Tag)
			}
			res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref, Prior: prior})
			if err != nil {
				return geom.Point{}, err
			}
			if prior != nil {
				ts.observe(info.Tag, res)
			}
			return ts.smooth(info.Tag, res.Estimate), nil
		},
		Logger: logger,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Calibrate only when nothing (fresh enough) was restored: the whole
	// point of the warm restart is skipping this step.
	if *calibrate && ts.calibration() == nil {
		d := dep.Fork(0xCA11)
		meas, txPos := d.CalibrationSounding()
		freqs := make([]float64, len(d.Bands))
		for k, ch := range d.Bands {
			freqs[k] = ch.CenterFreq()
		}
		cal, err := core.EstimateCalibration(d.Anchors, txPos, freqs, meas)
		if err != nil {
			logger.Error("calibration failed, continuing uncalibrated", "err", err)
		} else {
			ts.setCalibration(cal)
			logger.Info("array calibrated", "max_err_deg", cal.MaxErrorDeg())
		}
	}
	logger.Info("bloc-server listening", "addr", srv.Addr(), "anchors", *anchors,
		"durable", *stateDir != "")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic operator stats: engine perf counters (fix count, steering-
	// plane builds, precomputed-table footprint, scratch-pool efficiency)
	// alongside the server's round outcomes and durability counters.
	if *statsIvl > 0 {
		go func() {
			//lint:ignore clockcheck operator stats cadence is wall-clock by design
			tick := time.NewTicker(*statsIvl)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					es := eng.Stats()
					ss := srv.Stats()
					logger.Info("stats",
						"fixes", es.Fixes,
						"plane_builds", es.PlaneBuilds,
						"proj_builds", es.ProjBuilds,
						"table_kib", es.TableBytes/1024,
						"pool_hits", es.PoolHits,
						"pool_misses", es.PoolMisses,
						"rows_masked", es.RowsMasked,
						"gated_fixes", es.GatedFixes,
						"full_fixes", es.FullFixes,
						"gated_fallbacks", es.FallbackDisagree+es.FallbackLowConf+es.FallbackNoPeaks,
						"tiles_refined", es.TilesRefined,
						"tiles_total", es.TilesTotal,
						"rounds_full", ss.Full,
						"rounds_partial", ss.Partial,
						"rounds_coarse", ss.Coarse,
						"rounds_evicted", ss.Evicted,
						"conns_pruned", ss.Pruned,
						"rows_rejected", ss.RowsRejected,
						"quarantines", ss.Quarantines,
						"readmissions", ss.Readmissions,
						"reelections", ss.Reelections,
						"reference", ss.Reference,
						"checkpoints", ss.Checkpoints,
						"checkpoint_errors", ss.CheckpointErrors,
						"checkpoint_kib", ss.CheckpointBytes/1024,
						"warm_restores", ss.WarmRestores,
						"stale_discards", ss.StaleDiscards,
						"snapshot_fallbacks", ss.SnapshotFallbacks,
						"tier_gated", ss.TierGatedRounds,
						"tier_full", ss.TierFullRounds,
						"tier_fingerprint", ss.TierFingerprintRounds,
						"tier_centroid", ss.TierCentroidRounds,
						"tier_demotions", ss.TierDemotions,
						"tier_promotions", ss.TierPromotions,
						"tier_holdbacks", ss.TierHoldbacks,
						"serve_mode", ss.Mode,
						"mode_changes", ss.ModeChanges,
						"queue_depth", ss.QueueDepth,
						"queue_peak", ss.QueuePeak,
						"overload_degraded", ss.OverloadDegraded,
						"overload_shed", ss.OverloadShed,
						"budget_exceeded", ss.BudgetExceeded,
						"laggy_anchors", ss.LaggyAnchors,
						"laggy_marks", ss.LaggyMarks,
						"laggy_readmits", ss.LaggyReadmits,
						"early_completions", ss.EarlyCompletions,
						"panics_recovered", ss.PanicsRecovered,
						"breaker_opens", ss.BreakerOpens,
						"breaker_probes", ss.BreakerProbes,
						"breaker_skips", ss.BreakerSkips,
						"cell_restarts", ss.CellRestarts,
						"cells_quarantined", ss.CellsQuarantined,
					)
				}
			}
		}()
	}

	<-ctx.Done()
	// Restore default signal disposition: a second SIGINT/SIGTERM during
	// the drain kills the process immediately.
	stop()
	logger.Info("signal received, draining", "timeout", *drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Error("drain", "err", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
