// Warm restart: the durable state plane end to end (DESIGN.md §11). A
// checkpoint-enabled server boots cold, pays the array calibration once,
// localizes a few rounds and shuts down gracefully — draining in-flight
// rounds and writing a final snapshot. A second server "process" then
// opens the same state directory, warm-restores the calibration, health
// plane and round counter from the snapshot, and produces an accurate
// fix on its very first round without recalibrating. The same wiring in
// production: bloc-server -state-dir <dir> -calibrate.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"sync"
	"time"

	"bloc/internal/anchor"
	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/durable"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/testbed"
)

const seed = 91

// calHolder owns the array calibration the way cmd/bloc-server does and
// hands it across restarts through the checkpoint Export/Restore hooks.
type calHolder struct {
	mu  sync.Mutex
	cal *core.Calibration // guarded by mu
}

func (h *calHolder) get() *core.Calibration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cal
}

func (h *calHolder) set(cal *core.Calibration) {
	h.mu.Lock()
	h.cal = cal
	h.mu.Unlock()
}

func (h *calHolder) export() durable.External {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cal == nil {
		return durable.External{}
	}
	return durable.External{Calib: h.cal.ExportRotors()}
}

func (h *calHolder) restore(ext durable.External) error {
	if ext.Calib == nil {
		return nil
	}
	cal, err := core.RestoreCalibration(ext.Calib)
	if err != nil {
		return err
	}
	h.set(cal)
	return nil
}

// boot starts one server "process" on the shared state directory: fresh
// deployment, fresh engine, fresh anchor daemons — only the snapshot
// store persists across boots, exactly like a real restart.
func boot(store *durable.Store, h *calHolder) (*locserver.Server, []*anchor.Daemon) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	dep, err := testbed.Paper(seed)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		log.Fatal(err)
	}
	srv, err := locserver.New("127.0.0.1:0", locserver.Config{
		Anchors:  len(dep.Anchors),
		Antennas: dep.Anchors[0].N,
		Bands:    dep.Bands,
		Checkpoint: &locserver.CheckpointConfig{
			Store:    store,
			Interval: 500 * time.Millisecond,
			StateTTL: time.Hour,
			Export:   h.export,
			Restore:  h.restore,
		},
		OnSnapshot: func(info locserver.RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			if info.Coarse {
				res, err := eng.LocateRSSI(snap)
				if err != nil {
					return geom.Point{}, err
				}
				return res.Estimate, nil
			}
			if cal := h.get(); cal != nil {
				if corrected, err := cal.Apply(snap); err == nil {
					snap = corrected
				}
			}
			res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref})
			if err != nil {
				return geom.Point{}, err
			}
			return res.Estimate, nil
		},
		Logger: quiet,
	})
	if err != nil {
		log.Fatal(err)
	}
	daemons := make([]*anchor.Daemon, len(dep.Anchors))
	for i := range daemons {
		depI, err := testbed.Paper(seed)
		if err != nil {
			log.Fatal(err)
		}
		d, err := anchor.New(i, depI, quiet)
		if err != nil {
			log.Fatal(err)
		}
		if err := d.Connect(srv.Addr()); err != nil {
			log.Fatal(err)
		}
		daemons[i] = d
	}
	return srv, daemons
}

// calibrate estimates the array calibration like bloc-server -calibrate,
// re-sounding with a fresh salt when a noisy draw is unstable.
func calibrate(dep *testbed.Deployment) *core.Calibration {
	var lastErr error
	for salt := uint64(0); salt < 16; salt++ {
		d := dep.Fork(0xCA11 + salt)
		meas, txPos := d.CalibrationSounding()
		freqs := make([]float64, len(d.Bands))
		for k, ch := range d.Bands {
			freqs[k] = ch.CenterFreq()
		}
		cal, err := core.EstimateCalibration(dep.Anchors, txPos, freqs, meas)
		if err == nil {
			return cal
		}
		lastErr = err
	}
	log.Fatal(lastErr)
	return nil
}

func runRound(srv *locserver.Server, daemons []*anchor.Daemon, round uint32, tag geom.Point) {
	for _, d := range daemons {
		if err := d.MeasureAndReport(0, round, tag); err != nil {
			log.Fatal(err)
		}
	}
	select {
	case fix := <-srv.Fixes():
		est := geom.Pt(fix.X, fix.Y)
		fmt.Printf("  round %d: tag %v -> fix %v (err %.2f m)\n",
			fix.Round, tag, est, est.Dist(tag))
	//lint:ignore clockcheck example watchdog; real elapsed time is the point
	case <-time.After(10 * time.Second):
		log.Fatal("no fix")
	}
}

func main() {
	stateDir, err := os.MkdirTemp("", "bloc-state-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	store, err := durable.Open(stateDir)
	if err != nil {
		log.Fatal(err)
	}

	// --- Boot 1: cold start, pay the calibration, localize, drain. ---
	fmt.Println("boot 1 (cold): calibrating...")
	h := &calHolder{}
	srv, daemons := boot(store, h)
	dep, err := testbed.Paper(seed)
	if err != nil {
		log.Fatal(err)
	}
	h.set(calibrate(dep))
	fmt.Printf("  calibrated (max correction %.1f°)\n", h.get().MaxErrorDeg())
	runRound(srv, daemons, 1, geom.Pt(0.8, -0.6))
	runRound(srv, daemons, 2, geom.Pt(0.2, 0.4))

	// Graceful shutdown: finish in-flight rounds, write a final
	// checkpoint (what bloc-server does on SIGTERM).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	cancel()
	for _, d := range daemons {
		d.Close()
	}
	st := store.Stats()
	fmt.Printf("  drained: %d checkpoint(s), %d bytes, generation %d\n\n",
		st.Writes, st.BytesWritten, st.Generation)

	// --- Boot 2: a new process on the same state directory. ---
	fmt.Println("boot 2 (warm): restoring from snapshot...")
	store2, err := durable.Open(stateDir)
	if err != nil {
		log.Fatal(err)
	}
	h2 := &calHolder{}
	srv2, daemons2 := boot(store2, h2)
	defer srv2.Close()
	defer func() {
		for _, d := range daemons2 {
			d.Close()
		}
	}()
	ss := srv2.Stats()
	if h2.get() == nil || ss.WarmRestores != 1 {
		log.Fatalf("expected a warm restore (got %d, calibration %v)",
			ss.WarmRestores, h2.get() != nil)
	}
	fmt.Printf("  calibration restored without resounding (max correction %.1f°)\n",
		h2.get().MaxErrorDeg())
	// Accurate from the very first post-restart round.
	runRound(srv2, daemons2, 3, geom.Pt(-1.4, -0.3))
}
