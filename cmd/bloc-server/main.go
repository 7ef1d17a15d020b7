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
// Every configuration runs as a supervised fleet of -cells N ≥ 1
// fault-isolated cells (DESIGN.md §15). Each cell owns -anchors anchors,
// its own estimator (calibration, per-tag trackers) and fix queue, and
// listens on -listen's port + i; all cells share one localization engine.
// A cell that panics is restarted by its supervisor with exponential
// backoff and warm-restores from its own snapshots; while it is down,
// its tags degrade to flagged coarse fallback fixes computed by a
// neighbor cell (with one cell there is no neighbor, so rounds that
// complete while it is down get no fix). Writes to every anchor link sit
// behind a per-link circuit breaker: -breaker-threshold consecutive
// failures open it (skipping further writes), and after -breaker-cooldown
// a single half-open probe decides whether it closes.
//
// With -state-dir the server becomes crash-safe (DESIGN.md §11): every
// -checkpoint interval each cell persists anchor health, the elected
// reference, the calibration rotors and the per-tag Kalman tracks to a
// dual-slot snapshot store under -state-dir/cell-<i>, and on startup it
// warm-restores from the newest valid snapshot no older than -state-ttl.
// The SIGINT/SIGTERM handler is installed before any cell listens; on a
// signal the server drains: it stops admitting new rounds, finishes the
// in-flight ones (bounded by -drain-timeout), writes a final checkpoint
// and exits; a second signal forces immediate termination.
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
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/durable"
	"bloc/internal/estimator"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/testbed"
)

func main() {
	// The handler goes in before any cell listens, so a signal that
	// follows the listening line always drains.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Restore default signal disposition once the first signal arrives:
	// a second SIGINT/SIGTERM during the drain kills the process at once.
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run parses args, serves until ctx is done, then drains. It logs to
// stderr.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("bloc-server", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		listen    = fs.String("listen", "127.0.0.1:7100", "listen address")
		anchors   = fs.Int("anchors", 4, "number of anchors")
		antennas  = fs.Int("antennas", 4, "antennas per anchor")
		seed      = fs.Uint64("seed", 1, "shared deployment seed")
		deadline  = fs.Duration("round-deadline", 2*time.Second, "partial-round deadline (0 waits forever)")
		minAnch   = fs.Int("min-anchors", 2, "quorum: anchors required at the deadline")
		minBands  = fs.Int("min-bands", 1, "quorum: usable bands per counted anchor")
		heartbeat = fs.Duration("heartbeat", 2*time.Second, "anchor liveness probe interval (0 disables)")
		statsIvl  = fs.Duration("stats", time.Minute, "engine/server stats log interval (0 disables)")
		calibrate = fs.Bool("calibrate", false, "estimate array calibration at startup (skipped when restored)")

		stateDir  = fs.String("state-dir", "", "durable snapshot directory (empty disables checkpointing)")
		ckptIvl   = fs.Duration("checkpoint", 2*time.Second, "checkpoint interval")
		stateTTL  = fs.Duration("state-ttl", time.Hour, "discard snapshots older than this on restore")
		drainWait = fs.Duration("drain-timeout", 10*time.Second, "max time to finish in-flight rounds on shutdown")

		fixWorkers  = fs.Int("fix-workers", 2, "fix-computation workers draining the bounded queue")
		fixQueue    = fs.Int("fix-queue", 64, "bounded fix-queue depth (admission-control watermarks derive from it)")
		fixBudget   = fs.Duration("fix-budget", 0, "per-round latency budget first row→broadcast; exhausted fixes are dropped (0 disables)")
		adaptiveDdl = fs.Bool("adaptive-deadline", false, "adapt the round deadline to the live p95 of punctual anchors (requires -round-deadline > 0)")

		cells        = fs.Int("cells", 1, "supervised fault-isolated cells; >1 shards -anchors-per-cell across consecutive ports (DESIGN.md §15)")
		brkThreshold = fs.Int("breaker-threshold", 3, "consecutive send failures opening an anchor link's circuit breaker (<0 disables)")
		brkCooldown  = fs.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before the half-open probe")
		fpPath       = fs.String("fingerprint", "", "site-survey fingerprint DB (bloc-dataset survey); enables the ladder's fingerprint rung")
	)
	fs.Parse(args) // ExitOnError: -h and bad flags exit here

	logger := slog.New(slog.NewTextHandler(stderr, nil))

	env := testbed.PaperEnvironment(*seed)
	cfg := testbed.PaperConfig(*seed)
	cfg.Anchors = *anchors
	cfg.Antennas = *antennas
	dep, err := testbed.New(env, cfg)
	if err != nil {
		return err
	}
	// One engine serves every cell: the cells share the deployment's
	// geometry, and the engine is safe for concurrent fixes.
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return err
	}

	var fpdb *fingerprint.DB
	if *fpPath != "" {
		fpdb, err = fingerprint.ReadFile(*fpPath)
		if err != nil {
			return err
		}
		if fpdb.Anchors != *anchors {
			return fmt.Errorf("-fingerprint %s surveyed %d anchors, deployment has %d per cell",
				*fpPath, fpdb.Anchors, *anchors)
		}
		logger.Info("fingerprint survey loaded", "path", *fpPath,
			"points", len(fpdb.Points), "anchors", fpdb.Anchors, "step_m", fpdb.StepM)
	}

	addrs, err := cellAddrs(*listen, *cells)
	if err != nil {
		return err
	}
	ests := make([]*estimator.Estimator, len(addrs))
	for i := range ests {
		ests[i] = estimator.New(eng, fpdb, logger.With("cell", i))
	}

	var ckpt func(cell int) *locserver.CheckpointConfig
	if *stateDir != "" {
		stores := make([]*durable.Store, len(ests))
		for i := range stores {
			if stores[i], err = durable.Open(filepath.Join(*stateDir, fmt.Sprintf("cell-%d", i))); err != nil {
				return err
			}
		}
		ckpt = func(cell int) *locserver.CheckpointConfig {
			return &locserver.CheckpointConfig{
				Store:    stores[cell],
				Interval: *ckptIvl,
				StateTTL: *stateTTL,
				Export:   ests[cell].Export,
				Restore:  ests[cell].Restore,
			}
		}
	}

	f, err := locserver.NewFleet(locserver.FleetConfig{
		Cells:     *cells,
		CellAddrs: addrs,
		Cell: locserver.Config{
			Anchors:           *anchors,
			Antennas:          *antennas,
			Bands:             dep.Bands,
			RoundDeadline:     *deadline,
			MinAnchors:        *minAnch,
			MinBands:          *minBands,
			HeartbeatInterval: *heartbeat,
			FixWorkers:        *fixWorkers,
			FixQueueDepth:     *fixQueue,
			FixBudget:         *fixBudget,
			AdaptiveDeadline:  *adaptiveDdl,
			Breaker:           locserver.BreakerConfig{Threshold: *brkThreshold, Cooldown: *brkCooldown},
			Fingerprint:       fpdb != nil,
		},
		// `cell` is the serving cell — the tag's own on healthy rounds, a
		// neighbor on fallback rounds. A fallback round observes its
		// snapshot into the neighbor's filter first, so the KNN lookup
		// always has at least this round's signature to match.
		OnSnapshot: func(cell int, info locserver.RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			return ests[cell].Locate(info, snap)
		},
		Checkpoint: ckpt,
		Supervisor: locserver.SupervisorConfig{Seed: *seed},
		Logger:     logger,
	})
	if err != nil {
		return err
	}

	// All cells share the deployment's geometry, so one calibration
	// estimate seeds every cell that restored none. A cell that restored
	// one keeps it: skipping this step is the point of the warm restart.
	if *calibrate {
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
			for _, est := range ests {
				if est.Calibration() == nil {
					est.SetCalibration(cal)
				}
			}
			logger.Info("array calibrated", "max_err_deg", cal.MaxErrorDeg())
		}
	}
	for i := range ests {
		logger.Info("bloc-server listening", "cell", i, "addr", f.CellAddr(i),
			"anchors", *anchors, "durable", *stateDir != "")
	}

	var wg sync.WaitGroup
	if *statsIvl > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logStats(ctx, logger, *statsIvl, eng, f)
		}()
	}
	<-ctx.Done()
	wg.Wait()

	logger.Info("signal received, draining", "timeout", *drainWait)
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainWait)
	defer cancel()
	if err := f.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	logger.Info("drained cleanly")
	return nil
}

// cellAddrs derives each cell's listen address from the base -listen:
// consecutive ports from the base port, or all-ephemeral when it is 0.
func cellAddrs(listen string, cells int) ([]string, error) {
	host, portStr, err := net.SplitHostPort(listen)
	if err != nil {
		return nil, fmt.Errorf("-listen %q: %w", listen, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("-listen port %q: %w", portStr, err)
	}
	if cells < 1 {
		return nil, fmt.Errorf("-cells %d: need at least 1", cells)
	}
	addrs := make([]string, cells)
	for i := range addrs {
		p := "0"
		if port != 0 {
			p = strconv.Itoa(port + i)
		}
		addrs[i] = net.JoinHostPort(host, p)
	}
	return addrs, nil
}

// logStats logs one operator stats line every ivl until ctx is done:
// the engine's perf counters (fix count, steering-plane builds,
// precomputed-table footprint, scratch-pool efficiency) alongside the
// fleet's round outcomes, data-quality, durability, overload, ladder and
// supervision counters, then a warning for every cell not running
// healthy.
func logStats(ctx context.Context, logger *slog.Logger, ivl time.Duration, eng *core.Engine, f *locserver.Fleet) {
	//lint:ignore clockcheck operator stats cadence is wall-clock by design
	tick := time.NewTicker(ivl)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		es, fs := eng.Stats(), f.Stats()
		ss := fs.Agg
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
			"fallback_fixes", fs.FallbackFixes,
			"fallback_panics", fs.FallbackPanics,
			"fallback_dropped", fs.FallbackDropped,
			"fallback_lost", fs.FallbackLost,
			"routed_tags", fs.RoutedTags,
		)
		for _, cs := range fs.Cells {
			if !cs.Running || cs.State != "healthy" {
				logger.Warn("cell unhealthy", "cell", cs.Cell,
					"running", cs.Running, "state", cs.State, "restarts", cs.Restarts)
			}
		}
	}
}
