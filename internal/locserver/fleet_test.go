package locserver

import (
	"context"
	"sync"
	"testing"
	"time"

	"bloc/internal/ble"
	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/wire"
)

func TestFleetRouterMapping(t *testing.T) {
	rt := newRouter(4, 3)
	cases := []struct{ global, cell, local int }{
		{0, 0, 0}, {2, 0, 2}, {3, 1, 0}, {5, 1, 2}, {11, 3, 2},
	}
	for _, tc := range cases {
		if got := rt.cellOfAnchor(tc.global); got != tc.cell {
			t.Errorf("cellOfAnchor(%d) = %d, want %d", tc.global, got, tc.cell)
		}
		if got := rt.localAnchor(tc.global); got != tc.local {
			t.Errorf("localAnchor(%d) = %d, want %d", tc.global, got, tc.local)
		}
	}
	if got := rt.cellOfAnchor(12); got != -1 {
		t.Errorf("out-of-fleet anchor mapped to cell %d", got)
	}
	if got := rt.cellOfAnchor(-1); got != -1 {
		t.Errorf("negative anchor mapped to cell %d", got)
	}
	if _, ok := rt.homeOf(9); ok {
		t.Error("unobserved tag has a home")
	}
	rt.noteTag(9, 2)
	if home, ok := rt.homeOf(9); !ok || home != 2 {
		t.Errorf("homeOf(9) = %d,%v, want 2,true", home, ok)
	}
	if rt.tagCount() != 1 {
		t.Errorf("tagCount = %d", rt.tagCount())
	}
}

// fleetRecorder collects per-cell fix deliveries from FleetConfig.OnFix.
type fleetRecorder struct {
	mu   sync.Mutex
	got  map[fixKeyT]int      // delivery count; guarded by mu
	fix  map[fixKeyT]wire.Fix // last delivered fix; guarded by mu
	fall map[fixKeyT]bool     // delivered with info.Fallback; guarded by mu
}

type fixKeyT struct {
	cell  int
	tag   uint16
	round uint32
}

func newFleetRecorder() *fleetRecorder {
	return &fleetRecorder{
		got:  make(map[fixKeyT]int),
		fix:  make(map[fixKeyT]wire.Fix),
		fall: make(map[fixKeyT]bool),
	}
}

func (r *fleetRecorder) record(cell int, info RoundInfo, fix wire.Fix) {
	r.mu.Lock()
	k := fixKeyT{cell: cell, tag: info.Tag, round: info.Round}
	r.got[k]++
	r.fix[k] = fix
	r.fall[k] = info.Fallback
	r.mu.Unlock()
}

func (r *fleetRecorder) count(k fixKeyT) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.got[k]
}

func (r *fleetRecorder) snapshot() map[fixKeyT]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[fixKeyT]int, len(r.got))
	for k, v := range r.got {
		out[k] = v
	}
	return out
}

// fleetRow fabricates one valid CSI row carrying a GLOBAL anchor ID.
func fleetRow(tag uint16, round uint32, global uint8, band uint16) *wire.CSIRow {
	return &wire.CSIRow{
		Round: round, TagID: tag, AnchorID: global, BandIdx: band,
		Tag:    []complex128{complex(float64(round), float64(band+1))},
		Master: complex(1, float64(global%3+1)),
	}
}

func testFleet(t *testing.T, cells int, rec *fleetRecorder) *Fleet {
	t.Helper()
	f, err := NewFleet(FleetConfig{
		Cells: cells,
		Cell: Config{
			Anchors: 3, Antennas: 1, Bands: ble.DataChannels()[:2],
			RoundDeadline: 50 * time.Millisecond,
			FixQueueDepth: 256,
		},
		OnSnapshot: func(cell int, info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			return geom.Pt(float64(cell), float64(info.Tag)), nil
		},
		OnFix:  rec.record,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetRoutesRowsToCells feeds rounds through the global ingest
// facade and asserts each tag's fixes come from the cell owning its
// anchors, with global anchor IDs renumbered into cell-local space.
func TestFleetRoutesRowsToCells(t *testing.T) {
	rec := newFleetRecorder()
	f := testFleet(t, 2, rec)
	defer f.Close()

	// Tag 7 lives under cell 0's anchors (global 0..2), tag 8 under cell
	// 1's (global 3..5).
	for r := uint32(1); r <= 3; r++ {
		for a := uint8(0); a < 3; a++ {
			for b := uint16(0); b < 2; b++ {
				f.IngestRow(fleetRow(7, r, a, b))
				f.IngestRow(fleetRow(8, r, a+3, b))
			}
		}
	}
	// A row from outside the fleet is dropped, not crashed on.
	f.IngestRow(fleetRow(9, 1, 6, 0))

	for _, cs := range f.Stats().Cells {
		if !cs.Running || cs.State != "healthy" {
			t.Errorf("cell %d before drain: running=%v state=%s", cs.Cell, cs.Running, cs.State)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for r := uint32(1); r <= 3; r++ {
		k0 := fixKeyT{cell: 0, tag: 7, round: r}
		k1 := fixKeyT{cell: 1, tag: 8, round: r}
		if rec.count(k0) != 1 {
			t.Errorf("tag 7 round %d delivered %d times from cell 0", r, rec.count(k0))
		}
		if rec.count(k1) != 1 {
			t.Errorf("tag 8 round %d delivered %d times from cell 1", r, rec.count(k1))
		}
		rec.mu.Lock()
		if fx := rec.fix[k0]; fx.X != 0 || fx.Y != 7 {
			t.Errorf("tag 7 fix (%v,%v), want cell-0 stub (0,7)", fx.X, fx.Y)
		}
		if fx := rec.fix[k1]; fx.X != 1 || fx.Y != 8 {
			t.Errorf("tag 8 fix (%v,%v), want cell-1 stub (1,8)", fx.X, fx.Y)
		}
		rec.mu.Unlock()
	}
	for k := range rec.snapshot() {
		if k.tag == 9 {
			t.Errorf("out-of-fleet row produced a fix: %+v", k)
		}
	}
	fs := f.Stats()
	if fs.Agg.CellRestarts != 0 || fs.Agg.PanicsRecovered != 0 {
		t.Errorf("fault counters moved without faults: %+v", fs.Agg)
	}
	if fs.RoutedTags != 2 {
		t.Errorf("RoutedTags = %d, want 2", fs.RoutedTags)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	base := func() FleetConfig {
		return FleetConfig{
			Cells: 2,
			Cell:  Config{Anchors: 3, Antennas: 1, Bands: ble.DataChannels()[:2]},
			OnSnapshot: func(int, RoundInfo, *csi.Snapshot) (geom.Point, error) {
				return geom.Pt(0, 0), nil
			},
			Logger: quietLogger(),
		}
	}
	cases := []struct {
		name   string
		mutate func(*FleetConfig)
	}{
		{"zero cells", func(c *FleetConfig) { c.Cells = 0 }},
		{"nil OnSnapshot", func(c *FleetConfig) { c.OnSnapshot = nil }},
		{"addr count mismatch", func(c *FleetConfig) { c.CellAddrs = []string{"127.0.0.1:0"} }},
		{"anchor ID overflow", func(c *FleetConfig) { c.Cells = 100; c.Cell.Anchors = 3 }},
		{"template OnSnapshot", func(c *FleetConfig) {
			c.Cell.OnSnapshot = func(RoundInfo, *csi.Snapshot) (geom.Point, error) { return geom.Pt(0, 0), nil }
		}},
		{"template Hook", func(c *FleetConfig) { c.Cell.Hook = func(string) {} }},
		{"template Checkpoint", func(c *FleetConfig) { c.Cell.Checkpoint = &CheckpointConfig{} }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		if f, err := NewFleet(cfg); err == nil {
			f.Close()
			t.Errorf("%s: NewFleet accepted the config", tc.name)
		}
	}
}

// TestFleetFallbackPanicContained pins the fallback plane's panic
// containment: a neighbor-cell estimator that panics on a down cell's
// round must cost exactly that one fix — counted in FallbackPanics —
// and never propagate into the goroutine calling Fleet.IngestRow.
func TestFleetFallbackPanicContained(t *testing.T) {
	rec := newFleetRecorder()
	f, err := NewFleet(FleetConfig{
		Cells: 2,
		Cell: Config{
			Anchors: 3, Antennas: 1, Bands: ble.DataChannels()[:2],
			RoundDeadline: 50 * time.Millisecond,
			FixQueueDepth: 256,
		},
		OnSnapshot: func(cell int, info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			if info.Fallback {
				panic("estimator died on a fallback round")
			}
			return geom.Pt(float64(cell), float64(info.Tag)), nil
		},
		OnFix:  rec.record,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Take cell 0 down the way the fleet sees it mid-restart: no live
	// incarnation, rows for its anchors divert to the fallback collector.
	c := f.cells[0]
	c.mu.Lock()
	srv := c.srv
	c.srv = nil
	c.running = false
	c.mu.Unlock()
	srv.Close()

	// A complete round for cell 0's anchors fills a fallback bucket; the
	// completing row triggers the panicking neighbor estimator inline.
	// This must not panic the ingest caller (the test goroutine).
	for a := uint8(0); a < 3; a++ {
		for b := uint16(0); b < 2; b++ {
			f.IngestRow(fleetRow(7, 1, a, b))
		}
	}
	fs := f.Stats()
	if fs.FallbackPanics != 1 {
		t.Errorf("FallbackPanics = %d, want 1", fs.FallbackPanics)
	}
	if fs.FallbackFixes != 0 {
		t.Errorf("FallbackFixes = %d after a panicked fallback, want 0", fs.FallbackFixes)
	}
	if n := rec.count(fixKeyT{cell: 0, tag: 7, round: 1}); n != 0 {
		t.Errorf("panicked fallback round delivered %d fixes, want 0", n)
	}

	// The surviving cell still serves normally after the contained panic.
	for a := uint8(3); a < 6; a++ {
		for b := uint16(0); b < 2; b++ {
			f.IngestRow(fleetRow(8, 2, a, b))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := rec.count(fixKeyT{cell: 1, tag: 8, round: 2}); n != 1 {
		t.Errorf("surviving cell delivered %d fixes, want 1", n)
	}
}

// TestFleetFallbackLostWhileSoleCellRestarts pins the count of rounds a
// one-cell fleet — every default bloc-server — loses while its only
// cell restarts: the fallback collector completes them, but no running
// neighbor exists to serve them, so each is counted in FallbackLost and
// none produces a fix.
func TestFleetFallbackLostWhileSoleCellRestarts(t *testing.T) {
	rec := newFleetRecorder()
	f, err := NewFleet(FleetConfig{
		Cells: 1,
		Cell: Config{
			Anchors: 3, Antennas: 1, Bands: ble.DataChannels()[:2],
			RoundDeadline: 50 * time.Millisecond,
			FixQueueDepth: 256,
		},
		OnSnapshot: func(cell int, info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			if info.Round == 1 {
				panic("estimator died on round 1")
			}
			return geom.Pt(float64(cell), float64(info.Tag)), nil
		},
		OnFix:      rec.record,
		Supervisor: SupervisorConfig{BackoffInitial: 400 * time.Millisecond},
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ingestRound := func(round uint32) {
		for a := uint8(0); a < 3; a++ {
			for b := uint16(0); b < 2; b++ {
				f.IngestRow(fleetRow(7, round, a, b))
			}
		}
	}
	ingestRound(1)
	chaosAwait(t, 5*time.Second, "cell down after the round-1 panic", func() bool {
		return !f.Stats().Cells[0].Running
	})
	// Four complete rounds while the sole cell sits out its backoff.
	for round := uint32(2); round <= 5; round++ {
		ingestRound(round)
	}
	fs := f.Stats()
	if fs.Cells[0].Running {
		t.Fatal("cell came back before the four rounds were ingested; the backoff no longer covers the test")
	}
	if fs.FallbackLost != 4 {
		t.Errorf("FallbackLost = %d, want 4", fs.FallbackLost)
	}
	if fs.FallbackFixes != 0 || fs.FallbackPanics != 0 {
		t.Errorf("FallbackFixes = %d, FallbackPanics = %d with no neighbor; want 0, 0",
			fs.FallbackFixes, fs.FallbackPanics)
	}
	if got := rec.snapshot(); len(got) != 0 {
		t.Errorf("fixes delivered while the only cell was down: %v", got)
	}

	// The restarted cell serves again; nothing it serves is counted lost.
	chaosAwait(t, 5*time.Second, "cell restart", func() bool {
		return f.Stats().Cells[0].Running
	})
	ingestRound(6)
	chaosAwait(t, 5*time.Second, "round-6 fix", func() bool {
		return rec.count(fixKeyT{cell: 0, tag: 7, round: 6}) == 1
	})
	if fs := f.Stats(); fs.FallbackLost != 4 || fs.Cells[0].Restarts != 1 {
		t.Errorf("after the restart: FallbackLost = %d, restarts = %d; want 4, 1",
			fs.FallbackLost, fs.Cells[0].Restarts)
	}
}

// TestRetireStatsZeroesGauges pins the restart fold: a dead
// incarnation contributes its counters and high-water marks to
// cell.base, but never its point-in-time gauges — otherwise Fleet.Stats
// would report a retired server's queue depth and overload mode
// forever.
func TestRetireStatsZeroesGauges(t *testing.T) {
	final := Stats{Full: 3, QueueDepth: 7, Mode: 2, QueuePeak: 9}
	base := addCounters(Stats{Full: 1, QueuePeak: 4}, retireStats(final))
	if base.QueueDepth != 0 || base.Mode != 0 {
		t.Errorf("retired gauges leaked into base: depth=%d mode=%d", base.QueueDepth, base.Mode)
	}
	if base.QueuePeak != 9 {
		t.Errorf("QueuePeak = %d, want 9 (high-water mark survives retirement)", base.QueuePeak)
	}
	if base.Full != 4 {
		t.Errorf("Full = %d, want 4 (counters still sum)", base.Full)
	}
	// Folding a live incarnation on top reports its gauges as-is.
	live := addCounters(base, Stats{QueueDepth: 2, Mode: 1})
	if live.QueueDepth != 2 || live.Mode != 1 {
		t.Errorf("live gauges misreported: depth=%d mode=%d", live.QueueDepth, live.Mode)
	}
}

func TestFleetCloseIdempotent(t *testing.T) {
	rec := newFleetRecorder()
	f := testFleet(t, 2, rec)
	if err := f.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
}
