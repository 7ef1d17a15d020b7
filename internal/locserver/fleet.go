package locserver

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/wire"
)

// Fleet shards the deployment into supervised cells (DESIGN.md §15).
// Each cell is a complete, independent Server — its own anchor subset,
// fix queue, health plane, and durable checkpoint store — so a fault in
// one cell (a panicking estimator, a poisoned round, a wedged anchor
// link) is contained to 1/N of the floor instead of taking down every
// tag at once. A router maps global anchor IDs onto cells
// arithmetically and remembers each tag's home cell; a per-cell
// supervisor goroutine restarts a crashed cell with jittered
// exponential backoff, warm-loading its last checkpoint; and while a
// cell is down its tags degrade gracefully to flagged coarse fixes
// computed by a neighbor cell instead of going silent.

// FleetConfig describes a sharded deployment.
type FleetConfig struct {
	// Cells is the number of cells (≥ 1). Cells × Cell.Anchors must fit
	// the wire protocol's 8-bit anchor ID space.
	Cells int
	// CellAddrs optionally pins each cell's listen address (len ==
	// Cells); empty means every cell listens on an ephemeral localhost
	// port (in-process fleets, tests).
	CellAddrs []string
	// Cell is the per-cell server template. Anchors is the PER-CELL
	// anchor count; rows arrive with global anchor IDs and are
	// renumbered into cell-local space by the router. The template's
	// OnSnapshot/OnFix/Hook/OnPanic/Checkpoint/Logger must be nil — the
	// fleet owns those seams (use the fleet-level fields below).
	Cell Config
	// OnSnapshot localizes one cell's completed round; see
	// Config.OnSnapshot. The cell index is prepended so an embedder can
	// keep per-cell calibration and trackers.
	OnSnapshot func(cell int, info RoundInfo, snap *csi.Snapshot) (geom.Point, error)
	// OnFix, when set, observes every delivered fix with its cell. For
	// fallback fixes the cell index is the tag's HOME cell (the one
	// that was down), not the neighbor that computed it.
	OnFix func(cell int, info RoundInfo, fix wire.Fix)
	// Checkpoint, when set, returns cell i's durable checkpoint plane;
	// it is re-invoked on every restart, so returning the same Store
	// makes the revived cell warm-load the state its predecessor
	// checkpointed. Return nil to disable persistence for a cell.
	Checkpoint func(cell int) *CheckpointConfig
	// Hooks, when set, returns cell i's instrumentation hook (see
	// Config.Hook); fault drills schedule cell kills through it.
	Hooks func(cell int) func(event string)
	// Supervisor tunes restart backoff and the cell health state
	// machine; the zero value selects the documented defaults.
	Supervisor SupervisorConfig
	// Logger defaults to slog.Default(); each cell logs with a "cell"
	// attribute.
	Logger *slog.Logger
}

// cell is one supervised shard: the live Server incarnation plus the
// restart bookkeeping that outlives it.
type cell struct {
	idx     int
	panicCh chan string      // coalesced panic reports to the supervisor
	fln     *net.TCPListener // fleet-owned listener; outlives incarnations (see ingress.go)

	mu       sync.Mutex
	srv      *Server   // live incarnation; nil while restarting; guarded by mu
	running  bool      // guarded by mu
	gen      uint64    // incarnation counter; stale panic reports are dropped; guarded by mu
	restarts int       // completed supervisor restarts; guarded by mu
	base     Stats     // counters inherited from dead incarnations; guarded by mu
	sup      *supState // restart window / backoff / health state; fields guarded by mu
}

// reportPanic forwards one recovered panic to the supervisor unless it
// came from an incarnation the supervisor already gave up on. The send
// is nonblocking: panics during a restart coalesce into the one report
// already queued.
func (c *cell) reportPanic(gen uint64, where string) {
	c.mu.Lock()
	stale := gen != c.gen
	c.mu.Unlock()
	if stale {
		return
	}
	select {
	case c.panicCh <- where:
	default:
	}
}

// Fleet is a set of supervised cells behind one ingest facade.
type Fleet struct {
	cfg    FleetConfig
	log    *slog.Logger
	rt     *router
	fb     *fallbackCollector
	cells  []*cell
	closed chan struct{}
	wg     sync.WaitGroup
	now    func() time.Time // clock hook (tests); immutable after NewFleet

	mu       sync.Mutex
	closing  bool // guarded by mu
	fbFixes  int  // fallback fixes delivered for down cells; guarded by mu
	fbPanics int  // panics recovered on the fallback path; guarded by mu
	fbLost   int  // completed fallback rounds no running cell could serve; guarded by mu
}

// NewFleet starts every cell and its supervisor.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Cells < 1 {
		return nil, fmt.Errorf("locserver: fleet needs at least 1 cell, got %d", cfg.Cells)
	}
	if cfg.OnSnapshot == nil {
		return nil, errors.New("locserver: FleetConfig.OnSnapshot required")
	}
	if len(cfg.CellAddrs) != 0 && len(cfg.CellAddrs) != cfg.Cells {
		return nil, fmt.Errorf("locserver: %d cell addrs for %d cells", len(cfg.CellAddrs), cfg.Cells)
	}
	if cfg.Cells*cfg.Cell.Anchors > 0xFF {
		return nil, fmt.Errorf("locserver: %d cells × %d anchors exceeds the 8-bit anchor ID space",
			cfg.Cells, cfg.Cell.Anchors)
	}
	if cfg.Cell.OnSnapshot != nil || cfg.Cell.OnFix != nil || cfg.Cell.Hook != nil ||
		cfg.Cell.OnPanic != nil || cfg.Cell.Checkpoint != nil {
		return nil, errors.New("locserver: fleet cell template must leave callbacks and checkpointing to FleetConfig")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	f := &Fleet{
		cfg:    cfg,
		log:    cfg.Logger,
		rt:     newRouter(cfg.Cells, cfg.Cell.Anchors),
		fb:     newFallbackCollector(cfg.Cell.Anchors, cfg.Cell.Antennas, cfg.Cell.Bands),
		closed: make(chan struct{}),
		now:    time.Now,
	}
	for i := 0; i < cfg.Cells; i++ {
		c := &cell{
			idx:     i,
			panicCh: make(chan string, 1),
			sup:     newSupState(cfg.Supervisor, uint64(i)),
			gen:     1,
		}
		// The listener belongs to the fleet, not the incarnation: the
		// cell's address stays dialable across restarts, and the downtime
		// ingress accepts on it while the supervisor rebuilds the server.
		ln, err := net.Listen("tcp", f.listenAddr(i))
		if err == nil {
			c.fln = ln.(*net.TCPListener)
			var srv *Server
			srv, err = f.newCellServer(c, 1)
			if err != nil {
				c.fln.Close()
			} else {
				c.mu.Lock()
				c.srv = srv
				c.running = true
				c.mu.Unlock()
			}
		}
		if err != nil {
			for _, prev := range f.cells {
				prev.mu.Lock()
				psrv := prev.srv
				prev.mu.Unlock()
				psrv.Close()
				prev.fln.Close()
			}
			return nil, fmt.Errorf("locserver: cell %d: %w", i, err)
		}
		f.cells = append(f.cells, c)
	}
	for _, c := range f.cells {
		f.wg.Add(1)
		go f.supervise(c)
	}
	return f, nil
}

// listenAddr returns cell i's configured listen address.
func (f *Fleet) listenAddr(i int) string {
	if len(f.cfg.CellAddrs) > 0 {
		return f.cfg.CellAddrs[i]
	}
	return "127.0.0.1:0"
}

// newCellServer builds one cell incarnation, binding the fleet seams
// (localization, fix accounting, hooks, panic reports, checkpointing)
// into the template config. A fresh incarnation with a Checkpoint store
// warm-restores inside NewWithListener before serving a single row.
func (f *Fleet) newCellServer(c *cell, gen uint64) (*Server, error) {
	idx := c.idx
	cc := f.cfg.Cell
	cc.Logger = f.log.With("cell", idx)
	cc.OnSnapshot = func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
		return f.cfg.OnSnapshot(idx, info, snap)
	}
	if f.cfg.OnFix != nil {
		cc.OnFix = func(info RoundInfo, fix wire.Fix) { f.cfg.OnFix(idx, info, fix) }
	}
	if f.cfg.Hooks != nil {
		cc.Hook = f.cfg.Hooks(idx)
	}
	cc.OnPanic = func(where string, _ any) { c.reportPanic(gen, where) }
	if f.cfg.Checkpoint != nil {
		cc.Checkpoint = f.cfg.Checkpoint(idx)
	}
	return NewWithListener(newListenerLease(c.fln), cc)
}

// supervise is cell c's supervisor goroutine: it waits for panic
// reports and runs the restart cycle until the fleet closes.
func (f *Fleet) supervise(c *cell) {
	defer f.wg.Done()
	for {
		select {
		case <-f.closed:
			return
		case where := <-c.panicCh:
			if !f.restartCell(c, where) {
				return
			}
		}
	}
}

// restartCell runs one crash-only restart cycle: retire the dead
// incarnation (folding its counters into the cell's base so no history
// is lost), advance the restart window and health state, sit out the
// quarantine cooldown if one was earned, back off with jitter, then
// rebuild the cell — which warm-loads its durable checkpoint. Returns
// false when the fleet closed mid-cycle.
func (f *Fleet) restartCell(c *cell, where string) bool {
	now := f.now()
	c.mu.Lock()
	c.running = false
	c.gen++
	gen := c.gen
	srv := c.srv
	c.srv = nil
	st := c.sup.recordRestartLocked(now)
	backoff := c.sup.backoffLocked()
	cooldown := time.Duration(0)
	if st == cellQuarantined {
		cooldown = quarantineCooldown
	}
	c.mu.Unlock()
	f.log.Warn("cell crashed, supervisor restarting it",
		"cell", c.idx, "where", where, "state", st.String(),
		"backoff", backoff, "cooldown", cooldown)
	if srv != nil {
		srv.Close()
		final := srv.Stats()
		c.mu.Lock()
		c.base = addCounters(c.base, retireStats(final))
		c.mu.Unlock()
	}
	// The dead incarnation's acceptLoop has exited (Close waits for it),
	// so the fleet can accept on the cell's persistent listener for the
	// whole down window: TCP anchors keep their connection target, and
	// their rows become fallback fixes instead of being refused.
	ing := f.startIngress(c)
	if !f.sleep(cooldown) || !f.sleep(backoff) {
		ing.stop()
		return false
	}
	for {
		ing.stop() // quiesce the listener before leasing it to the new incarnation
		srv2, err := f.newCellServer(c, gen)
		if err != nil {
			f.log.Error("cell rebuild failed, retrying", "cell", c.idx, "err", err)
			ing = f.startIngress(c)
			if !f.sleep(c.sup.cfg.BackoffMax) {
				ing.stop()
				return false
			}
			continue
		}
		// Drop any panic report that raced in from the dying incarnation
		// (its gen is stale, but it may have been queued before gen
		// advanced), then drop the cell's fallback buckets: new rounds
		// belong to the revived cell, and a half-filled bucket completing
		// later would double-fix a round the cell also completes.
		select {
		case <-c.panicCh:
		default:
		}
		f.fb.drop(c.idx)
		c.mu.Lock()
		f.mu.Lock()
		closing := f.closing
		f.mu.Unlock()
		if closing {
			// Close already swept the cells; it will not see srv2, so we
			// must retire it ourselves.
			c.mu.Unlock()
			srv2.Close()
			return false
		}
		c.srv = srv2
		c.running = true
		c.restarts++
		c.mu.Unlock()
		f.log.Info("cell restarted", "cell", c.idx, "gen", gen, "state", st.String())
		return true
	}
}

// sleep waits d of real time (restart backoff and quarantine cooldown
// must hold off the actual wall clock) unless the fleet closes first.
func (f *Fleet) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	//lint:ignore clockcheck restart backoff sleeps on the real scheduler by design
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.closed:
		return false
	case <-t.C:
		return true
	}
}

// IngestRow routes one global-anchor-ID row to its cell, renumbering
// the anchor into cell-local space. Rows for a down cell feed the
// fallback collector instead, so the cell's tags keep receiving flagged
// coarse fixes from a neighbor while the supervisor restarts it. Safe
// to call from any goroutine; a row is delivered to exactly one of the
// cell server or the fallback collector.
func (f *Fleet) IngestRow(row *wire.CSIRow) {
	ci := f.rt.cellOfAnchor(int(row.AnchorID))
	if ci < 0 {
		f.log.Warn("row from anchor outside the fleet", "anchor", row.AnchorID)
		return
	}
	f.rt.noteTag(row.TagID, ci)
	local := *row
	local.AnchorID = uint8(f.rt.localAnchor(int(row.AnchorID)))
	c := f.cells[ci]
	c.mu.Lock()
	srv, running := c.srv, c.running
	c.mu.Unlock()
	if running && srv != nil {
		srv.IngestRow(&local)
		return
	}
	if snap, done := f.fb.add(ci, &local); done {
		f.deliverFallback(ci, row.TagID, row.Round, snap)
	}
}

// deliverFallback localizes a down cell's completed round on the next
// running neighbor and delivers the flagged coarse fix under the tag's
// home cell. The estimator callbacks run with panic recovery, like the
// cell fix path (recoverPanic): the fallback plane serves tags exactly
// when a cell is already down, so a panicking neighbor-cell estimator
// must drop the one fix, not propagate into whichever goroutine called
// Fleet.IngestRow and take the whole process with it.
func (f *Fleet) deliverFallback(home int, tag uint16, round uint32, snap *csi.Snapshot) {
	defer func() {
		if r := recover(); r != nil {
			f.mu.Lock()
			f.fbPanics++
			f.mu.Unlock()
			f.log.Error("panic recovered on the fallback fix path; fix dropped",
				"home", home, "tag", tag, "round", round, "panic", fmt.Sprint(r))
		}
	}()
	nb := f.nextRunning(home)
	if nb < 0 {
		// The whole fleet is down — in a one-cell fleet, whenever its
		// cell restarts — so nothing can serve this round.
		f.mu.Lock()
		f.fbLost++
		f.mu.Unlock()
		f.log.Warn("fallback round lost: no running cell", "home", home, "tag", tag, "round", round)
		return
	}
	// The fallback plane serves at the fleet's best degraded rung: with a
	// fingerprint-capable estimator the neighbor answers a KNN lookup,
	// otherwise it computes the centroid floor (DESIGN.md §16). No
	// hysteresis applies — the home cell's ladder state died with it.
	tier := TierCentroid
	if f.cfg.Cell.Fingerprint {
		tier = TierFingerprint
	}
	info := RoundInfo{Tag: tag, Round: round, Coarse: true, Fallback: true, Tier: tier}
	loc, err := f.cfg.OnSnapshot(nb, info, snap)
	if err != nil {
		f.log.Warn("fallback fix failed", "home", home, "neighbor", nb,
			"tag", tag, "round", round, "err", err)
		return
	}
	f.mu.Lock()
	f.fbFixes++
	f.mu.Unlock()
	fix := wire.Fix{Round: round, TagID: tag, X: loc.X, Y: loc.Y}
	if f.cfg.OnFix != nil {
		f.cfg.OnFix(home, info, fix)
	}
	f.log.Info("fallback fix served by neighbor", "home", home, "neighbor", nb,
		"tag", tag, "round", round)
}

// nextRunning returns the first running cell after `from` in ring
// order (possibly `from` itself if it already came back), or -1 when
// every cell is down.
func (f *Fleet) nextRunning(from int) int {
	for i := 1; i <= len(f.cells); i++ {
		idx := (from + i) % len(f.cells)
		c := f.cells[idx]
		c.mu.Lock()
		run := c.running
		c.mu.Unlock()
		if run {
			return idx
		}
	}
	return -1
}

// Cells returns the cell count.
func (f *Fleet) Cells() int { return len(f.cells) }

// CellAddr returns cell i's listening address. The listener is owned by
// the fleet and survives restarts, so the address is stable for the
// fleet's whole lifetime — dialable even while the cell is down (the
// downtime ingress answers then; see ingress.go).
func (f *Fleet) CellAddr(i int) string {
	return f.cells[i].fln.Addr().String()
}

// CellStatus describes one cell in a FleetStats snapshot.
type CellStatus struct {
	Cell     int
	Running  bool   // false while the supervisor is restarting it
	State    string // healthy | degraded | quarantined
	Restarts int    // completed supervisor restarts
	// Stats spans every incarnation: the dead ones' counters plus the
	// live server's.
	Stats Stats
}

// FleetStats is a point-in-time snapshot of the whole fleet.
type FleetStats struct {
	// Agg folds every cell's counters (see addCounters) and fills the
	// fleet-level Stats fields: CellRestarts, CellsQuarantined.
	Agg Stats
	// Cells holds one entry per cell, in cell order.
	Cells []CellStatus
	// FallbackFixes counts flagged coarse fixes served by neighbors for
	// tags whose home cell was down.
	FallbackFixes int
	// FallbackPanics counts panics recovered (and fixes dropped) on the
	// fallback path — a neighbor-cell estimator dying on a down cell's
	// round. Kept separate from the cells' PanicsRecovered, which count
	// only in-cell recoveries.
	FallbackPanics int
	// FallbackDropped counts incomplete fallback buckets discarded — on
	// a cell's revival (its own acquisition plane owns new rounds again)
	// or by the collector's wholesale cap eviction. Rounds these buckets
	// held produced no fix at all.
	FallbackDropped int
	// FallbackLost counts complete fallback rounds that produced no fix
	// because no cell was running to serve them: in a one-cell fleet,
	// every round that completes while its cell restarts.
	FallbackLost int
	// RoutedTags is how many tags currently have a recorded home cell.
	RoutedTags int
}

// Stats snapshots every cell and aggregates the fleet view.
func (f *Fleet) Stats() FleetStats {
	now := f.now()
	fs := FleetStats{Cells: make([]CellStatus, len(f.cells))}
	for i, c := range f.cells {
		c.mu.Lock()
		sum := c.base
		if c.srv != nil {
			sum = addCounters(c.base, c.srv.Stats())
		}
		state := c.sup.stateLocked(now)
		cs := CellStatus{
			Cell:     i,
			Running:  c.running,
			State:    state.String(),
			Restarts: c.restarts,
			Stats:    sum,
		}
		c.mu.Unlock()
		fs.Cells[i] = cs
		fs.Agg = addCounters(fs.Agg, sum)
		fs.Agg.CellRestarts += cs.Restarts
		if state == cellQuarantined {
			fs.Agg.CellsQuarantined++
		}
	}
	f.mu.Lock()
	fs.FallbackFixes = f.fbFixes
	fs.FallbackPanics = f.fbPanics
	fs.FallbackLost = f.fbLost
	f.mu.Unlock()
	fs.FallbackDropped = f.fb.droppedCount()
	fs.RoutedTags = f.rt.tagCount()
	return fs
}

// Drain gracefully drains every running cell concurrently (in-flight
// rounds finish, fix queues flush, final checkpoints are written), then
// closes the fleet. Cells mid-restart have nothing to flush and are
// closed by Close.
func (f *Fleet) Drain(ctx context.Context) error {
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for _, c := range f.cells {
		c.mu.Lock()
		srv, running := c.srv, c.running
		c.mu.Unlock()
		if !running || srv == nil {
			continue
		}
		wg.Add(1)
		go func(cellIdx int, srv *Server) {
			defer wg.Done()
			if err := srv.Drain(ctx); err != nil {
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("locserver: drain cell %d: %w", cellIdx, err)
				}
				mu.Unlock()
			}
		}(c.idx, srv)
	}
	wg.Wait()
	if err := f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Close stops every cell and supervisor. Idempotent and safe to call
// concurrently; later callers wait for the first teardown to finish.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closing {
		f.mu.Unlock()
		f.wg.Wait()
		return nil
	}
	f.closing = true
	f.mu.Unlock()
	close(f.closed)
	var err error
	for _, c := range f.cells {
		c.mu.Lock()
		srv := c.srv
		c.srv = nil
		c.running = false
		c.mu.Unlock()
		if srv != nil {
			if cerr := srv.Close(); cerr != nil && err == nil {
				err = cerr
			}
			// Fold the final incarnation's counters into the cell's base so
			// a post-shutdown Stats still reports the whole history.
			final := srv.Stats()
			c.mu.Lock()
			c.base = addCounters(c.base, retireStats(final))
			c.mu.Unlock()
		}
	}
	f.wg.Wait()
	// Supervisors are gone (and with them any downtime ingress), so the
	// persistent listeners can finally be closed for real — leases only
	// ever revoked them.
	for _, c := range f.cells {
		if cerr := c.fln.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// retireStats prepares a dead incarnation's final Stats for folding
// into cell.base: the point-in-time gauges (QueueDepth, Mode) are
// zeroed so post-restart aggregates reflect only live servers — a
// retired incarnation's last queue depth or overload mode must not be
// reported forever. QueuePeak survives untouched: it is explicitly a
// high-water mark over the cell's whole history.
func retireStats(s Stats) Stats {
	s.QueueDepth = 0
	s.Mode = 0
	return s
}

// addCounters folds two Stats snapshots: counters sum; Mode and
// QueuePeak take the max (worst observed); Reference takes b's (the
// newer operand — an aggregate reference is meaningless anyway).
func addCounters(a, b Stats) Stats {
	out := Stats{
		Full:    a.Full + b.Full,
		Partial: a.Partial + b.Partial,
		Coarse:  a.Coarse + b.Coarse,
		Evicted: a.Evicted + b.Evicted,
		Pruned:  a.Pruned + b.Pruned,

		RowsRejected: a.RowsRejected + b.RowsRejected,
		Quarantines:  a.Quarantines + b.Quarantines,
		Readmissions: a.Readmissions + b.Readmissions,
		Reelections:  a.Reelections + b.Reelections,
		Reference:    b.Reference,

		Checkpoints:       a.Checkpoints + b.Checkpoints,
		CheckpointErrors:  a.CheckpointErrors + b.CheckpointErrors,
		CheckpointBytes:   a.CheckpointBytes + b.CheckpointBytes,
		WarmRestores:      a.WarmRestores + b.WarmRestores,
		StaleDiscards:     a.StaleDiscards + b.StaleDiscards,
		SnapshotFallbacks: a.SnapshotFallbacks + b.SnapshotFallbacks,
		SlotCorruptions:   a.SlotCorruptions + b.SlotCorruptions,

		Mode:             max(a.Mode, b.Mode),
		ModeChanges:      a.ModeChanges + b.ModeChanges,
		QueueDepth:       a.QueueDepth + b.QueueDepth,
		QueuePeak:        max(a.QueuePeak, b.QueuePeak),
		OverloadDegraded: a.OverloadDegraded + b.OverloadDegraded,
		OverloadShed:     a.OverloadShed + b.OverloadShed,
		BudgetExceeded:   a.BudgetExceeded + b.BudgetExceeded,
		LaggyAnchors:     a.LaggyAnchors + b.LaggyAnchors,
		LaggyMarks:       a.LaggyMarks + b.LaggyMarks,
		LaggyReadmits:    a.LaggyReadmits + b.LaggyReadmits,
		EarlyCompletions: a.EarlyCompletions + b.EarlyCompletions,

		TierGatedRounds:       a.TierGatedRounds + b.TierGatedRounds,
		TierFullRounds:        a.TierFullRounds + b.TierFullRounds,
		TierFingerprintRounds: a.TierFingerprintRounds + b.TierFingerprintRounds,
		TierCentroidRounds:    a.TierCentroidRounds + b.TierCentroidRounds,
		TierDemotions:         a.TierDemotions + b.TierDemotions,
		TierPromotions:        a.TierPromotions + b.TierPromotions,
		TierHoldbacks:         a.TierHoldbacks + b.TierHoldbacks,

		PanicsRecovered: a.PanicsRecovered + b.PanicsRecovered,
		BreakerOpens:    a.BreakerOpens + b.BreakerOpens,
		BreakerProbes:   a.BreakerProbes + b.BreakerProbes,
		BreakerSkips:    a.BreakerSkips + b.BreakerSkips,

		CellRestarts:     a.CellRestarts + b.CellRestarts,
		CellsQuarantined: a.CellsQuarantined + b.CellsQuarantined,
	}
	return out
}
