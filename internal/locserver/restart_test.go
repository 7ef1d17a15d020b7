package locserver

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"bloc/internal/anchor"
	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/durable"
	"bloc/internal/faultnet"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/wire"
)

// Kill-and-restart drills for the durable state plane (DESIGN.md §11).
// "Kill" is an abrupt Close with no drain — from the snapshot store's
// point of view indistinguishable from SIGKILL, since only checkpoints
// that already hit the disk survive. "Restart" is a fresh Server (and a
// fresh engine, fresh calibration holder: a new process) opened on the
// same store directory.

// calHolder plays the embedding process's role: it owns the calibration
// the way cmd/bloc-server does and exposes it to the checkpoint plane.
type calHolder struct {
	mu  sync.Mutex
	cal *core.Calibration
}

func (h *calHolder) get() *core.Calibration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cal
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
	h.mu.Lock()
	h.cal = cal
	h.mu.Unlock()
	return nil
}

// calibrate estimates the deployment's array calibration the way
// cmd/bloc-server -calibrate does, re-sounding with a fresh salt when a
// noisy draw makes the estimate unstable (the same retry a real operator
// performs).
func calibrate(t *testing.T, dep *testbed.Deployment) *core.Calibration {
	t.Helper()
	var lastErr error
	for salt := uint64(0); salt < 16; salt++ {
		d := dep.Fork(0xCA11 + salt)
		meas, txPos := d.CalibrationSounding()
		freqs := make([]float64, len(d.Bands))
		for k, ch := range d.Bands {
			freqs[k] = ch.CenterFreq()
		}
		cal, err := core.EstimateCalibration(d.Anchors, txPos, freqs, meas)
		if err == nil {
			return cal
		}
		lastErr = err
	}
	t.Fatal(lastErr)
	return nil
}

// startDurableTestbed boots one server "process" on an existing snapshot
// store: fresh engine, fresh anchors, calibration applied from h when
// present. The checkpoint interval is an hour so tests drive checkpoints
// explicitly via checkpointNow, keeping drills deterministic.
func startDurableTestbed(t *testing.T, seed uint64, store *durable.Store, h *calHolder) (*Server, []*anchor.Daemon) {
	t.Helper()
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	return startTestbedWith(t, seed, func(c *Config) {
		c.Checkpoint = &CheckpointConfig{
			Store:    store,
			Interval: time.Hour,
			Export:   h.export,
			Restore:  h.restore,
		}
	}, func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
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
	})
}

// waitPending blocks until the server holds a pending round under rk.
func waitPending(t *testing.T, srv *Server, rk roundKey) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		_, ok := srv.rounds[rk]
		srv.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("round %v never became pending", rk)
		}
		time.Sleep(time.Millisecond)
	}
}

// runRound drives one full acquisition round through every daemon and
// returns the resulting fix.
func runRound(t *testing.T, srv *Server, daemons []*anchor.Daemon, round uint32, tag geom.Point) wire.Fix {
	t.Helper()
	for _, d := range daemons {
		if err := d.MeasureAndReport(0, round, tag); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case fix := <-srv.Fixes():
		return fix
	case <-time.After(10 * time.Second):
		t.Fatalf("no fix for round %d", round)
		return wire.Fix{}
	}
}

// kill simulates SIGKILL: daemons silenced, server torn down with no
// drain and no final checkpoint.
func kill(srv *Server, daemons []*anchor.Daemon) {
	for _, d := range daemons {
		d.Close()
	}
	srv.Close()
}

// TestRestartDrillWarmGoldenFix is the headline durability scenario: a
// calibrated server is killed between rounds; the restarted process must
// warm-restore the calibration and health plane from the last checkpoint
// and, replaying the identical sounding, produce a fix within 1e-9 m of
// the pre-crash one — the restore is exact, not merely plausible.
func TestRestartDrillWarmGoldenFix(t *testing.T) {
	const seed = 91
	dir := t.TempDir()
	tag := geom.Pt(0.7, -0.5)

	store1, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	h1 := &calHolder{cal: calibrate(t, dep)}
	srv1, daemons1 := startDurableTestbed(t, seed, store1, h1)
	if got := srv1.Stats().WarmRestores; got != 0 {
		t.Fatalf("fresh store produced a warm restore (%d)", got)
	}
	var golden wire.Fix
	for r := uint32(1); r <= 3; r++ {
		golden = runRound(t, srv1, daemons1, r, tag)
	}
	if err := srv1.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	kill(srv1, daemons1)

	// New process: empty calibration holder, fresh store handle.
	store2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2 := &calHolder{}
	srv2, daemons2 := startDurableTestbed(t, seed, store2, h2)
	st := srv2.Stats()
	if st.WarmRestores != 1 {
		t.Fatalf("WarmRestores = %d, want 1", st.WarmRestores)
	}
	cal2 := h2.get()
	if cal2 == nil {
		t.Fatal("calibration not restored")
	}
	// The restored rotors are bit-identical to the saved ones.
	want := h1.cal.ExportRotors()
	got := cal2.ExportRotors()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(real(want[i][j])) != math.Float64bits(real(got[i][j])) ||
				math.Float64bits(imag(want[i][j])) != math.Float64bits(imag(got[i][j])) {
				t.Fatalf("rotor [%d][%d] drifted through the snapshot: %v != %v",
					i, j, want[i][j], got[i][j])
			}
		}
	}
	// Replaying the killed round's sounding (daemons fork the world by
	// (tag, round), so round 3 reproduces bit-identical CSI) must land
	// within 1e-9 of the pre-crash fix — and it is the FIRST post-restore
	// round, well inside the two-round warm-restart budget.
	replay := runRound(t, srv2, daemons2, 3, tag)
	if dx, dy := math.Abs(replay.X-golden.X), math.Abs(replay.Y-golden.Y); dx > 1e-9 || dy > 1e-9 {
		t.Fatalf("post-restore fix (%.12f,%.12f) differs from pre-crash (%.12f,%.12f) by (%g,%g)",
			replay.X, replay.Y, golden.X, golden.Y, dx, dy)
	}
	// The round high-water mark continued instead of restarting at zero.
	srv2.mu.Lock()
	maxRound := srv2.maxRound
	srv2.mu.Unlock()
	if maxRound < 3 {
		t.Fatalf("maxRound = %d after restore+replay, want >= 3", maxRound)
	}
}

// TestRestartStaleSnapshotColdStart: a snapshot older than the TTL must
// be discarded — stale calibration is worse than none.
func TestRestartStaleSnapshotColdStart(t *testing.T) {
	const seed = 91
	dir := t.TempDir()
	store, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	cal := calibrate(t, dep)
	st := &durable.State{
		SavedUnixNano: time.Now().Add(-2 * time.Hour).UnixNano(),
		Round:         7,
		Anchors:       make([]durable.AnchorHealth, len(dep.Anchors)),
	}
	for i := range st.Anchors {
		st.Anchors[i] = durable.AnchorHealth{Score: 1}
	}
	st.Calib = cal.ExportRotors()
	if err := store.Save(st); err != nil {
		t.Fatal(err)
	}

	h := &calHolder{}
	srv, _ := startDurableTestbed(t, seed, store, h)
	stats := srv.Stats()
	if stats.WarmRestores != 0 {
		t.Fatalf("WarmRestores = %d for a stale snapshot, want 0", stats.WarmRestores)
	}
	if stats.StaleDiscards != 1 {
		t.Fatalf("StaleDiscards = %d, want 1", stats.StaleDiscards)
	}
	if h.get() != nil {
		t.Fatal("stale calibration was restored")
	}
}

// TestSnapCorruptionDrills damages the newest snapshot slot with every
// injector faultnet offers and restarts the server on the wreckage. Each
// corruption must be detected by the record validation, fall back to the
// older generation (or cold-start when nothing survives), bump the
// corresponding Stats counter — and never panic.
func TestSnapCorruptionDrills(t *testing.T) {
	const seed = 93
	tag := geom.Pt(0.4, 0.3)

	// Two checkpoints: generation 1 lands in slot 1 (state-b), generation
	// 2 in slot 0 (state-a). The newest generation lives in slot 0, which
	// is what every drill corrupts.
	const newestSlot, olderSlot = 0, 1

	cases := []struct {
		name    string
		corrupt func(t *testing.T, c *faultnet.SnapCorrupter)
		// bothDead marks drills that destroy every slot: cold start.
		bothDead bool
		// clean marks drills whose damage is structurally valid (stale
		// generation): no corruption counter, still a warm restore.
		clean bool
	}{
		{name: "torn write", corrupt: func(t *testing.T, c *faultnet.SnapCorrupter) {
			if err := c.TornWrite(newestSlot); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "bit flip", corrupt: func(t *testing.T, c *faultnet.SnapCorrupter) {
			if err := c.BitFlip(newestSlot); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "truncated to header", corrupt: func(t *testing.T, c *faultnet.SnapCorrupter) {
			if err := c.Truncate(newestSlot, 18); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "emptied", corrupt: func(t *testing.T, c *faultnet.SnapCorrupter) {
			if err := c.Truncate(newestSlot, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "stale generation", clean: true, corrupt: func(t *testing.T, c *faultnet.SnapCorrupter) {
			if err := c.StaleGeneration(newestSlot, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "both slots dead", bothDead: true, corrupt: func(t *testing.T, c *faultnet.SnapCorrupter) {
			if err := c.BitFlip(newestSlot); err != nil {
				t.Fatal(err)
			}
			if err := c.TornWrite(olderSlot); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store1, err := durable.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := testbed.Paper(seed)
			if err != nil {
				t.Fatal(err)
			}
			h1 := &calHolder{cal: calibrate(t, dep)}
			srv1, daemons1 := startDurableTestbed(t, seed, store1, h1)
			runRound(t, srv1, daemons1, 1, tag)
			if err := srv1.checkpointNow(); err != nil {
				t.Fatal(err)
			}
			runRound(t, srv1, daemons1, 2, tag)
			if err := srv1.checkpointNow(); err != nil {
				t.Fatal(err)
			}
			kill(srv1, daemons1)

			tc.corrupt(t, faultnet.NewSnapCorrupter(dir, uint64(1000+ci)))

			store2, err := durable.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			h2 := &calHolder{}
			srv2, daemons2 := startDurableTestbed(t, seed, store2, h2)
			st := srv2.Stats()
			srv2.mu.Lock()
			maxRound := srv2.maxRound
			srv2.mu.Unlock()
			switch {
			case tc.bothDead:
				if st.WarmRestores != 0 {
					t.Fatalf("WarmRestores = %d with every slot dead, want 0", st.WarmRestores)
				}
				if st.SlotCorruptions < 2 {
					t.Fatalf("SlotCorruptions = %d, want >= 2", st.SlotCorruptions)
				}
				if h2.get() != nil {
					t.Fatal("calibration conjured from corrupted slots")
				}
			case tc.clean:
				// Structurally valid but old: newest-wins selection serves
				// the other slot; nothing is "corrupt".
				if st.WarmRestores != 1 {
					t.Fatalf("WarmRestores = %d, want 1", st.WarmRestores)
				}
				if st.SlotCorruptions != 0 {
					t.Fatalf("SlotCorruptions = %d for a stale-generation drill, want 0", st.SlotCorruptions)
				}
				if maxRound != 1 {
					t.Fatalf("restored round %d, want 1 (the surviving generation)", maxRound)
				}
			default:
				if st.WarmRestores != 1 {
					t.Fatalf("WarmRestores = %d, want 1 (fallback to older generation)", st.WarmRestores)
				}
				if st.SlotCorruptions == 0 {
					t.Fatal("corruption went uncounted")
				}
				if st.SnapshotFallbacks == 0 {
					t.Fatal("fallback went uncounted")
				}
				if maxRound != 1 {
					t.Fatalf("restored round %d, want 1 (generation 1 snapshot)", maxRound)
				}
				if h2.get() == nil {
					t.Fatal("calibration lost despite a valid older generation")
				}
			}
			// Whatever happened to the snapshots, the server must still
			// localize.
			fix := runRound(t, srv2, daemons2, 5, tag)
			if math.IsNaN(fix.X) || math.IsNaN(fix.Y) {
				t.Fatal("post-corruption fix is NaN")
			}
		})
	}
}

// TestDrainGraceful: Drain stops admitting new rounds, lets the in-flight
// round finish, writes a final checkpoint and closes.
func TestDrainGraceful(t *testing.T) {
	const seed = 93
	tag := geom.Pt(0.2, 0.6)
	dir := t.TempDir()
	store, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	h := &calHolder{cal: calibrate(t, dep)}
	srv, daemons := startDurableTestbed(t, seed, store, h)

	runRound(t, srv, daemons, 1, tag)

	// Round 2 goes in flight: three of four anchors report. Wait for the
	// server to register the pending round before draining — otherwise
	// rows still in TCP flight would arrive after the drain latches and
	// be refused as a "new" round.
	for _, d := range daemons[:3] {
		if err := d.MeasureAndReport(0, 2, tag); err != nil {
			t.Fatal(err)
		}
	}
	waitPending(t, srv, roundKey{tag: 0, round: 2})
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()
	// Wait until the drain has actually latched.
	for {
		srv.mu.Lock()
		draining := srv.draining
		srv.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// A brand-new round is refused admission during the drain...
	if err := daemons[3].MeasureAndReport(0, 9, tag); err != nil {
		t.Fatal(err)
	}
	// ...but the in-flight round's last rows still land and complete it.
	if err := daemons[3].MeasureAndReport(0, 2, tag); err != nil {
		t.Fatal(err)
	}
	select {
	case fix := <-srv.Fixes():
		if fix.Round != 2 {
			t.Fatalf("drained fix for round %d, want 2", fix.Round)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight round did not complete during drain")
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The refused round never produced a fix.
	select {
	case fix := <-srv.Fixes():
		t.Fatalf("unexpected fix for round %d after drain", fix.Round)
	default:
	}
	// The final checkpoint captured the drained state.
	if got := store.Stats().Writes; got < 1 {
		t.Fatalf("store writes = %d, want >= 1 (final checkpoint)", got)
	}
	final, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if final.Round != 2 {
		t.Fatalf("final checkpoint round = %d, want 2", final.Round)
	}
	if final.Calib == nil {
		t.Fatal("final checkpoint lost the calibration")
	}
}

// TestDrainTimeout: a round that can never complete must not wedge the
// drain — the context bounds it and the server still closes with a final
// checkpoint.
func TestDrainTimeout(t *testing.T) {
	const seed = 95
	dir := t.TempDir()
	store, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := &calHolder{}
	srv, daemons := startDurableTestbed(t, seed, store, h)

	// One lonely anchor opens a round nobody else will ever finish.
	if err := daemons[0].MeasureAndReport(0, 1, geom.Pt(0, 0)); err != nil {
		t.Fatal(err)
	}
	waitPending(t, srv, roundKey{tag: 0, round: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v despite a 200ms deadline", elapsed)
	}
	if got := store.Stats().Writes; got < 1 {
		t.Fatalf("store writes = %d, want >= 1 (final checkpoint)", got)
	}
}
