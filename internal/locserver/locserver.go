// Package locserver implements BLoc's central server (§3): it accepts TCP
// connections from anchor daemons, collects their per-band CSI reports,
// assembles complete snapshots per acquisition round and hands them to a
// localization callback, broadcasting the resulting fix back to the
// anchors.
//
// The acquisition plane is fault tolerant. Every round follows the
// lifecycle pending → quorum-complete | deadline-complete | evicted: a
// round that receives every row completes immediately (full); when a
// RoundDeadline is configured, a round that reaches the deadline with at
// least MinAnchors anchors holding MinBands usable bands completes as a
// partial snapshot whose presence mask tells the estimator which rows to
// trust (partial); anything below quorum is evicted. Completed and evicted
// rounds are tombstoned so straggler rows cannot resurrect them. Optional
// server→anchor heartbeats prune connections whose daemons stopped
// answering.
//
// On top of the acquisition plane sits a data-quality and failover plane
// (DESIGN.md §10). Every CSI row is sanity-checked on ingest
// (csi.RowValidator: NaN/Inf, dead rows, stuck tones, frozen phase,
// magnitude outliers); rejected rows are masked out of the round and feed
// rolling per-anchor health scores. Anchors whose scores collapse are
// quarantined — their rows are dropped (but still scored, which is how
// they earn probation and eventual readmission) — and the α-correction
// reference index is re-elected away from a quarantined or silent
// reference, so the system no longer assumes the paper's fixed master
// (anchor 0) stays trustworthy.
//
// Degraded rounds descend an explicit ladder (DESIGN.md §16): every
// delivered fix is stamped with a FixTier — prior-gated CSI, full CSI,
// fingerprint KNN, RSSI centroid — and a round whose CSI quorum is
// unmet completes at the best degraded rung the deployment supports
// (RoundInfo.Coarse plus RoundInfo.Tier) instead of emitting nothing.
// Demotion is immediate; promotion back to the CSI plane is hysteretic
// (2 consecutive CSI-grade rounds when Config.Fingerprint is set), so
// consecutive fixes never flap between accuracy regimes.
package locserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"bloc/internal/ble"
	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/wire"
)

// Config describes the expected deployment.
type Config struct {
	Anchors  int
	Antennas int
	Bands    []ble.ChannelIndex
	// OnSnapshot is called with each completed round's snapshot; the
	// returned point is broadcast to the anchors as the fix. Returning an
	// error drops the round (logged, not fatal). Partial or sanitized
	// rounds deliver a snapshot with a presence mask (snap.Complete() ==
	// false). info.Ref is the elected α-correction reference the
	// estimator must use (core.LocateOptions.Ref), and info.Coarse marks a
	// degraded round that only supports an RSSI-style coarse fix.
	OnSnapshot func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error)
	// Logger defaults to slog.Default().
	Logger *slog.Logger

	// RoundDeadline bounds how long a round may stay pending after its
	// first row. 0 disables deadlines: rounds wait forever for every row
	// (the pre-fault-tolerance behavior).
	RoundDeadline time.Duration
	// MinAnchors is the quorum: a deadline-expired round completes as a
	// partial snapshot only if at least this many anchors contributed
	// MinBands usable bands (a band is usable for anchor i only if the
	// master's row for that band also arrived — correction needs ĥ00).
	// Defaults to 2 (the estimator's floor) when RoundDeadline is set.
	MinAnchors int
	// MinBands is the per-anchor usefulness floor for quorum counting.
	// Defaults to 1 when RoundDeadline is set.
	MinBands int

	// HeartbeatInterval enables server→anchor liveness probes: every
	// interval each authenticated connection gets a heartbeat, and a
	// connection that misses heartbeatMisses consecutive probes without
	// echoing any of them is pruned. 0 disables heartbeats.
	HeartbeatInterval time.Duration

	// Health seeds anchor quarantine and reference election; the zero
	// value selects HealthConfig's documented defaults. Every row runs
	// csi.QualityConfig's default sanity pipeline.
	Health HealthConfig

	// Checkpoint enables the durable state plane (DESIGN.md §11):
	// periodic crash-safe snapshots off the fix path, warm restore on
	// startup, and a final checkpoint during Drain. nil disables
	// persistence entirely.
	Checkpoint *CheckpointConfig

	// FixWorkers is the size of the fix-pipeline worker pool (default
	// 2). Localization runs on these workers, never on the ingest path:
	// a completed round is queued, and the row reader moves on.
	FixWorkers int
	// FixQueueDepth bounds the fix queue (default 64). Rounds that
	// cannot be admitted are shed by priority, never queued unboundedly.
	FixQueueDepth int
	// FixBudget bounds one round's first row → fix → broadcast latency;
	// a round that exhausts it is dropped (before localization when
	// already late, and again before broadcast) instead of delivered
	// stale. 0 disables budgets.
	FixBudget time.Duration
	// AdaptiveDeadline derives each round's deadline from the live
	// per-anchor arrival-latency p95 (clamped to [RoundDeadline/10,
	// RoundDeadline]) instead of the static RoundDeadline, and lets
	// rounds complete early once every non-laggy anchor has reported.
	// Requires RoundDeadline > 0.
	AdaptiveDeadline bool
	// Overload tunes admission control's tag-priority TTL; the zero
	// value selects the default. Its watermarks follow FixQueueDepth.
	Overload OverloadConfig
	// Breaker tunes the per-anchor-link circuit breakers gating every
	// server→anchor send (DESIGN.md §15). The zero value selects the
	// defaults; Threshold < 0 disables breakers.
	Breaker BreakerConfig

	// Fingerprint declares that the estimator behind OnSnapshot can
	// answer TierFingerprint lookups (it holds a site-survey fingerprint
	// DB, internal/fingerprint). It changes two things (DESIGN.md §16):
	// coarse rounds are stamped TierFingerprint instead of TierCentroid,
	// and rounds whose usable-anchor count falls in
	// [fingerprintMinAnchors, 3) complete coarsely instead of being
	// evicted — partial-signature KNN works below the trilateration
	// floor. It also sets the ladder's promotion hysteresis: after a
	// tag served a degraded fix, 2 consecutive CSI-grade rounds are
	// required before it serves CSI again (the holdbacks going out at
	// the previous degraded tier), where without it the tag promotes
	// immediately — the pre-ladder behavior. False keeps the seed
	// behavior bit-for-bit.
	Fingerprint bool

	// OnFix, when set, is called exactly once per delivered fix, after
	// the broadcast, on the fix worker that computed it. The fleet layer
	// uses it for exactly-once delivery accounting; it must not block.
	OnFix func(info RoundInfo, fix wire.Fix)
	// Hook, when set, is called at the panic-safe instrumentation
	// points (HookIngest before each ingested row, HookFix before each
	// fix computation). Fault drills inject scheduled panics through it
	// (faultnet.CellKiller); a panic escaping the hook is recovered and
	// reported through OnPanic, never crashes the process.
	Hook func(event string)
	// OnPanic, when set, receives every panic recovered inside the
	// server (ingest handlers and fix workers). The cell supervisor
	// restarts the cell on it; it must not block and must not call back
	// into the server synchronously.
	OnPanic func(where string, v any)
}

// heartbeatMisses is how many consecutive heartbeats a connection may
// leave unanswered before it is pruned.
const heartbeatMisses = 3

// fingerprintMinAnchors is the coarse-completion floor with
// Config.Fingerprint: the fingerprint KNN's anchor-overlap minimum.
const fingerprintMinAnchors = 2

// Hook events: the panic-safe instrumentation points Config.Hook is
// called at. Both sit outside every server lock, so a hook that panics
// (a scheduled cell kill) can be recovered without wedging a mutex.
const (
	HookIngest = "ingest"
	HookFix    = "fix"
)

// RoundInfo describes one completed round to the OnSnapshot callback.
type RoundInfo struct {
	Tag   uint16 // which tag the round belongs to
	Round uint32
	// Ref is the anchor index the snapshot must be α-corrected against
	// (core.LocateOptions.Ref). It is the reference that was elected when the
	// round started: an in-flight round always completes on the
	// reference its rows were collected under, even if a re-election
	// happened meanwhile.
	Ref int
	// Coarse marks a degraded round: the CSI quorum was unmet (too few
	// anchors with correction-grade rows against Ref), but at least
	// three anchors contributed usable rows, which is enough for an
	// RSSI-only coarse fix. Correction-based estimators will fail on
	// such a snapshot; use a magnitude-based fallback.
	Coarse bool
	// Degraded marks a round demoted to the coarse path by overload
	// admission control (DESIGN.md §12) rather than by data quality:
	// the snapshot itself is CSI-grade, but the serve mode routed it to
	// the cheap fix to shed load. Degraded implies Coarse.
	Degraded bool
	// Tracked reports whether the tag had enough recent fix history at
	// admission time to count as tracked (the same signal admission
	// control prioritizes on). Estimators holding a motion tracker can
	// use it to arm the prior-gated search for this fix.
	Tracked bool
	// Fallback marks a round assembled by the fleet for a tag whose home
	// cell was down, localized coarsely by a neighbor cell (DESIGN.md
	// §15). Fallback implies Coarse; the fix is flagged, not silent.
	Fallback bool
	// Tier is the rung of the degradation ladder this fix is served at
	// (DESIGN.md §16). It subsumes the booleans above: Coarse rounds
	// serve at TierFingerprint or TierCentroid, CSI rounds at
	// TierGatedCSI or TierFullCSI — except during promotion holdback,
	// when a CSI-grade snapshot is deliberately served at the previous
	// degraded tier (and Coarse is forced true to match).
	Tier FixTier
}

// Stats counts round outcomes and data-quality events.
type Stats struct {
	Full    int // rounds completed with every row
	Partial int // rounds completed at deadline with a quorum
	Coarse  int // completions degraded to RSSI-only mode (CSI quorum unmet)
	Evicted int // rounds abandoned below every quorum
	Pruned  int // connections dropped by heartbeat misses

	RowsRejected int // CSI rows rejected by the sanity pipeline
	Quarantines  int // transitions into quarantine
	Readmissions int // probation → healthy graduations
	Reelections  int // reference re-elections since startup
	Reference    int // currently elected reference anchor

	Checkpoints       int    // durable snapshots persisted
	CheckpointErrors  int    // checkpoint attempts that failed
	CheckpointBytes   uint64 // total snapshot bytes written
	WarmRestores      int    // 1 if this process restored state at startup
	StaleDiscards     int    // snapshots discarded for exceeding the TTL
	SnapshotFallbacks int    // restores served by the older slot (newer corrupt)
	SlotCorruptions   int    // snapshot slots rejected by validation

	Mode             int // current serve mode (0 normal, 1 degraded, 2 shedding)
	ModeChanges      int // serve-mode transitions since startup
	QueueDepth       int // fix jobs currently queued
	QueuePeak        int // high-water mark of the fix queue
	OverloadDegraded int // rounds demoted to the coarse fix by overload
	OverloadShed     int // rounds dropped by admission control
	BudgetExceeded   int // fixes dropped for exhausting FixBudget
	LaggyAnchors     int // anchors currently excluded from quorum waits
	LaggyMarks       int // transitions into laggy
	LaggyReadmits    int // laggy anchors readmitted to quorum waits
	EarlyCompletions int // rounds completed early by excluding laggy anchors

	// Supervision plane (DESIGN.md §15). The breaker and panic counters
	// are live on every server; the cell counters are filled by the
	// fleet aggregate (a standalone server reports 0).
	// Degradation ladder (DESIGN.md §16): how many admitted rounds were
	// served at each rung, plus the hysteresis transitions.
	TierGatedRounds       int // fixes served at TierGatedCSI
	TierFullRounds        int // fixes served at TierFullCSI
	TierFingerprintRounds int // fixes served at TierFingerprint
	TierCentroidRounds    int // fixes served at TierCentroid
	TierDemotions         int // tags dropped from the CSI plane to a degraded rung
	TierPromotions        int // tags promoted back to the CSI plane
	TierHoldbacks         int // CSI-grade rounds served degraded during promotion hysteresis

	PanicsRecovered  int // panics recovered in ingest handlers and fix workers
	BreakerOpens     int // per-anchor-link breaker transitions into open
	BreakerProbes    int // half-open probe sends attempted
	BreakerSkips     int // sends skipped because a link's breaker was open
	CellRestarts     int // supervised cell restarts (fleet aggregate only)
	CellsQuarantined int // cells currently quarantined (fleet aggregate only)
}

// Server collects CSI and serves fixes.
type Server struct {
	cfg Config
	ln  net.Listener
	log *slog.Logger

	mu        sync.Mutex
	rounds    map[roundKey]*pendingRound // guarded by mu
	done      map[roundKey]doneRound     // completed rounds (bounded; see ingest); guarded by mu
	conns     map[*client]struct{}       // guarded by mu
	stats     Stats                      // guarded by mu
	validator *csi.RowValidator          // per-row sanity pipeline; guarded by mu
	health    *healthTracker             // quarantine + reference election + laggy tracking; guarded by mu
	fixes     chan wire.Fix              // completed fixes, for observers/tests
	closed    chan struct{}              // signals heartbeat loop shutdown
	closeDone chan struct{}              // closed once the first Close finishes teardown
	wg        sync.WaitGroup
	closing   bool          // guarded by mu
	draining  bool          // drain started: admit no new rounds; guarded by mu
	finalCkpt bool          // final drain checkpoint already claimed; guarded by mu
	maxRound  uint32        // highest round tombstoned (checkpoint high-water mark); guarded by mu
	brkCfg    BreakerConfig // resolved breaker parameters (immutable after New)

	// Overload plane (DESIGN.md §12).
	fq          *fixQueue             // bounded fix queue; guarded by mu
	fixCond     *sync.Cond            // wakes fix workers; shares mu
	busyTags    map[uint16]bool       // tags with a fix in flight; guarded by mu
	fixInflight int                   // jobs popped but not finished; guarded by mu
	mode        serveMode             // admission-control state; guarded by mu
	ovl         overloadParams        // resolved watermarks (immutable after New)
	tagHist     map[uint16]tagHistory // per-tag fix history for shed priority; guarded by mu
	now         func() time.Time      // clock hook (tests); immutable after New

	// Degradation ladder (DESIGN.md §16).
	tiers        map[uint16]tierState // per-tag ladder hysteresis; guarded by mu
	promoteAfter int                  // promotion hysteresis in rounds: 2 with Fingerprint, else 1 (immutable after New)

	hbMisses int // heartbeat prune threshold: heartbeatMisses; guarded by mu

	ckpt *CheckpointConfig // durable checkpointing; nil when disabled
}

// doneRound tombstones a completed or evicted round. The first-row
// timestamp and per-anchor seen set survive completion so a straggler
// row arriving after an early (laggy-excluded) completion still feeds
// the latency plane — without that, a laggy anchor's EWMA would freeze
// at its worst value and it could never earn readmission.
type doneRound struct {
	start time.Time
	seen  []bool // anchors whose first row was already observed
}

// maxDoneRounds bounds the completed-round memory; older entries are
// evicted wholesale once the cap is hit (late duplicates for ancient
// rounds would then re-localize, which is harmless).
const maxDoneRounds = 4096

// roundKey identifies one tag's acquisition round.
type roundKey struct {
	tag   uint16
	round uint32
}

// client is one connected anchor; writeMu serializes frames written by
// concurrent round completions so they never interleave, and guards the
// link's circuit breaker so its decisions serialize with the writes.
type client struct {
	conn    net.Conn
	id      uint8 // guarded by Server.mu
	misses  int   // unanswered heartbeat count; guarded by Server.mu
	writeMu sync.Mutex
	brk     breaker // per-link circuit breaker; fields guarded by writeMu
}

// sendClient writes one frame to a client through its circuit breaker:
// open links are skipped (errBreakerOpen) instead of attempted, a
// cooled-down link gets a single half-open probe, and every outcome
// feeds the breaker state machine and the server's breaker counters.
func (s *Server) sendClient(c *client, msg any) error {
	c.writeMu.Lock()
	ok, probe := c.brk.allowLocked(s.now())
	if !ok {
		c.writeMu.Unlock()
		s.mu.Lock()
		s.stats.BreakerSkips++
		s.mu.Unlock()
		return errBreakerOpen
	}
	err := wire.Send(c.conn, msg)
	opened := c.brk.resultLocked(err == nil, s.now())
	c.writeMu.Unlock()
	if probe || opened {
		s.mu.Lock()
		if probe {
			s.stats.BreakerProbes++
		}
		if opened {
			s.stats.BreakerOpens++
		}
		s.mu.Unlock()
	}
	if opened {
		s.log.Warn("anchor link breaker opened", "anchor", c.id, "err", err)
	}
	return err
}

// rowState is what a pending round holds of one (anchor, band) row.
type rowState uint8

const (
	rowMissing  rowState = iota
	rowAccepted          // passed the sanity pipeline
	rowRejected          // received but rejected by the sanity pipeline
)

type pendingRound struct {
	snap  *csi.Snapshot
	rows  []rowState  // indexed anchor*len(Bands) + band
	got   int         // rows received (accepted or rejected)
	quar  []bool      // anchors quarantined when the round started
	ref   int         // reference elected when the round started
	timer *time.Timer // deadline; nil when RoundDeadline is 0

	start     time.Time // first-row arrival; deadline-budget + latency reference
	seen      []bool    // anchors with ≥1 row this round (latency observed once each)
	laggy     []bool    // anchors laggy when the round started (excluded from quorum waits)
	nonLagGot int       // rows received from non-laggy anchors
	nonLagAll int       // rows expected from non-laggy anchors; 0 disables early completion
}

// New starts a server listening on addr (e.g. "127.0.0.1:0").
func New(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("locserver: listen: %w", err)
	}
	s, err := NewWithListener(ln, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return s, nil
}

// NewWithListener starts a server on an existing listener; the server
// takes ownership and closes it on Close. Tests use this to interpose
// fault-injecting listeners.
func NewWithListener(ln net.Listener, cfg Config) (*Server, error) {
	if cfg.Anchors < 2 || cfg.Antennas < 1 || len(cfg.Bands) == 0 {
		return nil, fmt.Errorf("locserver: invalid config %+v", cfg)
	}
	if cfg.OnSnapshot == nil {
		return nil, errors.New("locserver: OnSnapshot callback required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.RoundDeadline > 0 {
		if cfg.MinAnchors == 0 {
			cfg.MinAnchors = 2
		}
		if cfg.MinBands == 0 {
			cfg.MinBands = 1
		}
		if cfg.MinAnchors < 2 || cfg.MinAnchors > cfg.Anchors {
			return nil, fmt.Errorf("locserver: MinAnchors %d outside [2,%d]", cfg.MinAnchors, cfg.Anchors)
		}
		if cfg.MinBands < 1 || cfg.MinBands > len(cfg.Bands) {
			return nil, fmt.Errorf("locserver: MinBands %d outside [1,%d]", cfg.MinBands, len(cfg.Bands))
		}
	}
	if cfg.Checkpoint != nil && cfg.Checkpoint.Store == nil {
		return nil, errors.New("locserver: CheckpointConfig.Store required")
	}
	if cfg.FixWorkers <= 0 {
		cfg.FixWorkers = 2
	}
	if cfg.FixQueueDepth <= 0 {
		cfg.FixQueueDepth = 64
	}
	if cfg.FixQueueDepth < minFixQueueDepth {
		return nil, fmt.Errorf("locserver: FixQueueDepth %d below %d: the overload watermarks need room for their hysteresis bands",
			cfg.FixQueueDepth, minFixQueueDepth)
	}
	if cfg.FixBudget < 0 {
		return nil, fmt.Errorf("locserver: negative FixBudget %v", cfg.FixBudget)
	}
	if cfg.AdaptiveDeadline && cfg.RoundDeadline <= 0 {
		return nil, errors.New("locserver: AdaptiveDeadline requires RoundDeadline > 0")
	}
	promoteAfter := 1
	if cfg.Fingerprint {
		promoteAfter = 2
	}
	s := &Server{
		cfg:       cfg,
		ln:        ln,
		log:       cfg.Logger,
		rounds:    make(map[roundKey]*pendingRound),
		done:      make(map[roundKey]doneRound),
		conns:     make(map[*client]struct{}),
		validator: csi.NewRowValidator(cfg.Anchors, csi.QualityConfig{}),
		health:    newHealthTracker(cfg.Anchors, cfg.Health),
		fixes:     make(chan wire.Fix, 64),
		closed:    make(chan struct{}),
		closeDone: make(chan struct{}),
		brkCfg:    cfg.Breaker.withDefaults(),
		fq:        newFixQueue(cfg.FixQueueDepth),
		busyTags:  make(map[uint16]bool),
		ovl:       cfg.Overload.params(cfg.FixQueueDepth),
		tagHist:   make(map[uint16]tagHistory),
		now:       time.Now,

		tiers:        make(map[uint16]tierState),
		promoteAfter: promoteAfter,
		hbMisses:     heartbeatMisses,
	}
	s.fixCond = sync.NewCond(&s.mu)
	if cfg.Checkpoint != nil {
		s.ckpt = cfg.Checkpoint.withDefaults()
		// Warm restore before any goroutine can touch the state.
		s.restoreFromStore()
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	for i := 0; i < cfg.FixWorkers; i++ {
		s.wg.Add(1)
		go s.fixWorker()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if cfg.HeartbeatInterval > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop()
	}
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Fixes returns a channel of completed fixes (buffered; drops when full).
func (s *Server) Fixes() <-chan wire.Fix { return s.fixes }

// Stats returns a snapshot of the round-outcome and data-quality
// counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Quarantines = s.health.quarantines
	st.Readmissions = s.health.readmissions
	st.Reelections = s.health.reelections
	st.Reference = s.health.referenceLocked()
	st.Mode = int(s.mode)
	st.QueueDepth = s.fq.size
	st.LaggyAnchors = s.health.laggyCountLocked()
	st.LaggyMarks = s.health.lagMarks
	st.LaggyReadmits = s.health.lagReadmits
	if s.ckpt != nil {
		ss := s.ckpt.Store.Stats()
		st.CheckpointBytes = ss.BytesWritten
		st.SnapshotFallbacks = int(ss.Fallbacks)
		st.SlotCorruptions = int(ss.Corruptions)
	}
	return st
}

// Close stops the listener, all connections, pending round timers, the
// fix workers and the heartbeat loop, and waits for every in-flight
// completion. Jobs still queued are abandoned: Close is the hard stop
// (Drain flushes them first).
//
// Close is idempotent and safe to call concurrently: the first caller
// performs the teardown and gets any listener-close error; every other
// caller (concurrent or later) waits for that teardown to finish and
// returns nil.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.closeDone
		return nil
	}
	s.closing = true
	close(s.closed)
	for rk, pr := range s.rounds {
		if pr.timer != nil {
			pr.timer.Stop()
		}
		delete(s.rounds, rk)
	}
	conns := make([]*client, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.fixCond.Broadcast() // release workers parked in Wait
	err := s.ln.Close()
	for _, c := range conns {
		c.conn.Close()
	}
	s.wg.Wait()
	close(s.closeDone)
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if !closing {
				s.log.Error("accept failed", "err", err)
			}
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// heartbeatLoop probes every authenticated connection each interval and
// prunes the ones that stopped echoing.
func (s *Server) heartbeatLoop() {
	defer s.wg.Done()
	//lint:ignore clockcheck heartbeat cadence is wall-clock; liveness probes must fire in real time
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	var nonce uint32
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
		}
		nonce++
		type probe struct {
			cl    *client
			id    uint8
			prune bool
		}
		s.mu.Lock()
		probes := make([]probe, 0, len(s.conns))
		for c := range s.conns {
			if c.id == 0xFF {
				continue // hello not finished; the read path handles it
			}
			c.misses++
			dead := c.misses > s.hbMisses
			if dead {
				s.stats.Pruned++
			}
			probes = append(probes, probe{cl: c, id: c.id, prune: dead})
		}
		s.mu.Unlock()
		for _, p := range probes {
			if p.prune {
				s.log.Warn("anchor unresponsive, pruning", "anchor", p.id)
				p.cl.conn.Close() // its handler exits and deregisters
				continue
			}
			// A breaker-open skip is not a send failure: the probe never
			// went out. Misses still accrue, so a link whose breaker never
			// re-closes is pruned by the ordinary liveness path.
			if err := s.sendClient(p.cl, &wire.Heartbeat{Nonce: nonce}); err != nil &&
				!errors.Is(err, errBreakerOpen) {
				p.cl.conn.Close()
			}
		}
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()

	// Register the connection before any blocking read, under the same
	// lock that Close uses to set closing: a connection accepted from the
	// TCP backlog after Close snapshotted the conn map would otherwise
	// keep its handler blocked forever and deadlock Close's wg.Wait.
	cl := &client{conn: conn, id: 0xFF, brk: breaker{cfg: s.brkCfg}}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return
	}
	s.conns[cl] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, cl)
		s.mu.Unlock()
	}()

	// One buffered reader carries every frame of the connection, so rows
	// that arrive back to back (a round's bands, written as one batch or
	// queued in the socket) cost one read syscall per buffer fill instead
	// of two per frame.
	br := bufio.NewReader(conn)
	msg, err := wire.Receive(br)
	if err != nil {
		s.log.Warn("connection dropped before hello", "remote", conn.RemoteAddr(), "err", err)
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		s.log.Warn("first message was not hello", "remote", conn.RemoteAddr())
		return
	}
	if hello.Version != wire.ProtocolVersion {
		s.log.Warn("protocol version mismatch", "got", hello.Version, "want", wire.ProtocolVersion)
		return
	}
	if int(hello.AnchorID) >= s.cfg.Anchors || int(hello.Antennas) != s.cfg.Antennas ||
		int(hello.Bands) != len(s.cfg.Bands) {
		s.log.Warn("hello does not match deployment", "hello", fmt.Sprintf("%+v", hello))
		return
	}
	s.mu.Lock()
	cl.id = hello.AnchorID
	s.mu.Unlock()
	s.log.Info("anchor connected", "anchor", hello.AnchorID, "remote", conn.RemoteAddr())

	for {
		msg, err := wire.Receive(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// Framing garbage, oversized frames and truncated payloads
				// all land here: the malformed client is dropped, the
				// server carries on.
				s.log.Warn("read failed", "anchor", hello.AnchorID, "err", err)
			}
			return
		}
		switch m := msg.(type) {
		case *wire.CSIRow:
			if m.AnchorID != hello.AnchorID {
				s.log.Warn("anchor id spoofed in row", "hello", hello.AnchorID, "row", m.AnchorID)
				continue
			}
			s.IngestRow(m)
		case *wire.Heartbeat:
			s.mu.Lock()
			cl.misses = 0
			s.mu.Unlock()
		default:
			s.log.Warn("unexpected message type", "anchor", hello.AnchorID, "msg", fmt.Sprintf("%T", msg))
		}
	}
}

// recoverPanic recovers an in-flight panic from a hook point, the
// localization callback, or the ingest path, counts it, and reports it
// to the supervisor through OnPanic. It must only guard code that
// leaves no lock held when a panic unwinds through it: the hook points
// and OnSnapshot run lock-free, and ingest releases s.mu by defer.
// Recovering a panic that stranded a held mutex would wedge the whole
// cell — every later ingest, Stats and Close would block on it —
// which is exactly the blast radius this plane exists to contain. Use
// as `defer s.recoverPanic("where")`.
func (s *Server) recoverPanic(where string) {
	r := recover()
	if r == nil {
		return
	}
	s.mu.Lock()
	s.stats.PanicsRecovered++
	s.mu.Unlock()
	s.log.Error("panic recovered", "where", where, "panic", fmt.Sprint(r))
	if s.cfg.OnPanic != nil {
		s.cfg.OnPanic(where, r)
	}
}

// IngestRow feeds one CSI row into the acquisition plane in-process —
// the fleet router's path into a cell, and the path the TCP read loop
// takes for every row. The cell hook fires first (HookIngest), and any
// panic it or the ingest path raises is recovered — with s.mu already
// released by ingest's deferred unlock — and reported through OnPanic,
// so the caller's reader goroutine survives a dying cell.
func (s *Server) IngestRow(row *wire.CSIRow) {
	defer s.recoverPanic("ingest")
	if h := s.cfg.Hook; h != nil {
		h(HookIngest)
	}
	s.ingest(row)
}

// ingest validates and merges one CSI row, and finalizes the round when
// every row has arrived — or, with AdaptiveDeadline, as soon as every
// non-laggy anchor has reported. Localization itself never runs here: a
// finalized round is enqueued on the bounded fix queue and the reader
// returns to its socket. nonblocking: the row reader must never park,
// so sendblock holds this function to the no-blocking-ops contract.
// The TCP path validates anchor IDs at hello, but Server.IngestRow is
// exported, so the anchor bound is re-checked here — an out-of-range
// ID must reject the row, never index past the per-round state.
func (s *Server) ingest(row *wire.CSIRow) {
	if int(row.AnchorID) >= s.cfg.Anchors || int(row.BandIdx) >= len(s.cfg.Bands) ||
		len(row.Tag) != s.cfg.Antennas {
		s.log.Warn("malformed csi row", "anchor", row.AnchorID, "band", row.BandIdx,
			"antennas", len(row.Tag))
		return
	}
	rk := roundKey{tag: row.TagID, round: row.Round}
	s.mu.Lock()
	// Deferred so a panic unwinding out of the round bookkeeping (a
	// poisoned round) releases the lock before IngestRow's recover runs;
	// a recovered panic must crash only the round, never wedge the cell.
	defer s.mu.Unlock()
	if dr, ok := s.done[rk]; ok {
		// A straggler for a completed round is dropped, but its lateness
		// still feeds the latency plane: early (laggy-excluded)
		// completions would otherwise freeze a laggy anchor's EWMA at
		// its worst value and bar readmission forever.
		if a := int(row.AnchorID); !dr.seen[a] {
			dr.seen[a] = true
			s.health.observeLatencyLocked(a, s.now().Sub(dr.start))
		}
		return
	}
	pr := s.rounds[rk]
	if pr == nil {
		if s.draining {
			// Drain admits no new rounds; rows for already-pending rounds
			// above still land, so in-flight acquisitions can finish.
			return
		}
		pr = &pendingRound{
			snap:  csi.NewSnapshot(s.cfg.Bands, s.cfg.Anchors, s.cfg.Antennas),
			rows:  make([]rowState, s.cfg.Anchors*len(s.cfg.Bands)),
			quar:  s.health.quarantinedSetLocked(),
			ref:   s.health.referenceLocked(),
			start: s.now(),
			seen:  make([]bool, s.cfg.Anchors),
		}
		if s.cfg.RoundDeadline > 0 {
			deadline := s.cfg.RoundDeadline
			if s.cfg.AdaptiveDeadline {
				deadline = s.health.adaptiveDeadlineLocked(s.cfg.RoundDeadline)
				pr.laggy = s.health.laggySetLocked()
				nonLaggy := 0
				for _, l := range pr.laggy {
					if !l {
						nonLaggy++
					}
				}
				if nonLaggy < s.cfg.Anchors {
					pr.nonLagAll = nonLaggy * len(s.cfg.Bands)
				}
			}
			//lint:ignore clockcheck round deadlines fire on the real scheduler; the seam feeds only latency math
			pr.timer = time.AfterFunc(deadline, func() { s.roundDeadline(rk) })
		}
		s.rounds[rk] = pr
	}
	if a := int(row.AnchorID); !pr.seen[a] {
		pr.seen[a] = true
		s.health.observeLatencyLocked(a, s.now().Sub(pr.start))
	}
	idx := int(row.AnchorID)*len(s.cfg.Bands) + int(row.BandIdx)
	if pr.rows[idx] != rowMissing {
		return // duplicate (transport resend); never re-validated
	}
	pr.got++
	if pr.nonLagAll > 0 && !pr.laggy[row.AnchorID] {
		pr.nonLagGot++
	}
	// Sanity-check the row before it can touch the snapshot. The verdict
	// also feeds the anchor's health score — quarantined anchors keep
	// being scored (that is how they earn probation) but their rows never
	// enter the snapshot.
	verdict := s.validator.Check(int(row.AnchorID), row.Tag, row.Master)
	s.health.observeLocked(int(row.AnchorID), verdict)
	if !verdict.OK() {
		s.stats.RowsRejected++
		pr.rows[idx] = rowRejected
		s.log.Debug("csi row rejected", "anchor", row.AnchorID, "band", row.BandIdx,
			"round", row.Round, "verdict", verdict.String())
	} else {
		pr.rows[idx] = rowAccepted
		if !pr.quar[row.AnchorID] {
			copy(pr.snap.Tag[row.BandIdx][row.AnchorID], row.Tag)
			if row.AnchorID != 0 {
				pr.snap.Master[row.BandIdx][row.AnchorID] = row.Master
			}
		}
	}
	full := pr.got >= len(pr.rows)
	// Straggler-aware early completion: once every non-laggy anchor has
	// delivered every band, waiting the rest of the deadline only buys
	// rows from anchors already excluded from the quorum.
	early := !full && pr.nonLagAll > 0 && pr.nonLagGot >= pr.nonLagAll
	if !full && !early {
		return
	}
	if pr.timer != nil {
		pr.timer.Stop()
	}
	delete(s.rounds, rk)
	s.markDoneLocked(rk, pr)
	if early {
		s.stats.EarlyCompletions++
	}
	snap, info, usable := s.finalizeLocked(rk, pr, full)
	if usable {
		s.enqueueFixLocked(&fixJob{rk: rk, snap: snap, info: info, start: pr.start})
	}
}

// roundDeadline fires when a pending round's deadline expires: the round
// either completes (fully sanitized, possibly degraded to coarse mode) or
// is evicted. Either way it is tombstoned so stragglers cannot resurrect
// it. Completion is an enqueue under the same lock that removed the
// round — localization happens on a fix worker — so teardown (Close and
// Drain both serialize on mu) can never race a half-finished completion.
func (s *Server) roundDeadline(rk roundKey) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return
	}
	pr := s.rounds[rk]
	if pr == nil {
		s.mu.Unlock()
		return // completed in the meantime
	}
	delete(s.rounds, rk)
	s.markDoneLocked(rk, pr)
	snap, info, usable := s.finalizeLocked(rk, pr, false)
	if usable {
		s.enqueueFixLocked(&fixJob{rk: rk, snap: snap, info: info, start: pr.start})
	}
	s.mu.Unlock()
	if !usable {
		s.log.Warn("round evicted at deadline", "tag", rk.tag, "round", rk.round,
			"rows", pr.got, "of", len(pr.rows))
		return
	}
	s.log.Info("round completed at deadline", "tag", rk.tag, "round", rk.round,
		"coarse", info.Coarse, "ref", info.Ref, "rows", pr.got)
}

// finalizeLocked assesses one assembled round against the quorums, masks
// every row that cannot be trusted (missing, rejected, or from an anchor
// that was quarantined when the round started) and advances the health
// plane's round boundary. It returns the snapshot to localize and its
// RoundInfo; usable is false when the round falls below even the coarse
// floor and must be evicted. full marks a round whose every row arrived.
// Caller holds s.mu.
func (s *Server) finalizeLocked(rk roundKey, pr *pendingRound, full bool) (*csi.Snapshot, RoundInfo, bool) {
	K := len(s.cfg.Bands)
	goodRow := func(i, k int) bool {
		return pr.rows[i*K+k] == rowAccepted && !pr.quar[i]
	}
	// A band supports α correction for anchor i only when both i's row
	// and the reference's row survived: without ĥ_r0 there is nothing to
	// correct against (Eq. 10, relaxed to reference r).
	minAnchors, minBands := s.cfg.MinAnchors, s.cfg.MinBands
	if minAnchors <= 0 {
		minAnchors = 2 // the estimator's floor (no-deadline configs)
	}
	if minBands <= 0 {
		minBands = 1
	}
	csiOK, coarseOK := 0, 0
	for i := 0; i < s.cfg.Anchors; i++ {
		nCSI, nAny := 0, 0
		for k := 0; k < K; k++ {
			if !goodRow(i, k) {
				continue
			}
			nAny++
			if goodRow(pr.ref, k) {
				nCSI++
			}
		}
		if nCSI >= minBands {
			csiOK++
		}
		if nAny > 0 {
			coarseOK++
		}
	}
	info := RoundInfo{Tag: rk.tag, Round: rk.round, Ref: pr.ref}
	usable := true
	switch {
	case csiOK >= minAnchors:
		if full {
			s.stats.Full++
		} else {
			s.stats.Partial++
		}
	case coarseOK >= 3: // RSSI trilateration floor
		info.Coarse = true
		s.stats.Coarse++
	case s.cfg.Fingerprint && coarseOK >= fingerprintMinAnchors:
		// Below the trilateration floor but above the KNN overlap
		// minimum: a fingerprint-capable estimator can still match a
		// partial signature (DESIGN.md §16), so the round completes
		// coarsely instead of being evicted.
		info.Coarse = true
		s.stats.Coarse++
	default:
		s.stats.Evicted++
		usable = false
	}
	if usable {
		for k := 0; k < K; k++ {
			for i := 0; i < s.cfg.Anchors; i++ {
				if !goodRow(i, k) {
					pr.snap.MaskMissing(k, i)
				}
			}
		}
	}
	s.roundBoundaryLocked(pr.seen)
	return pr.snap, info, usable
}

// roundBoundaryLocked advances the health plane by one completed round:
// scores are folded, quarantine transitions applied (resetting the
// validator history of anchors entering probation, so stale statistics do
// not judge fresh data) and the reference re-elected when needed. seen is
// the completing round's own presence set, so concurrent tag rounds
// sharing the global verdict accumulators cannot make each other's
// anchors look silent. Caller holds s.mu.
func (s *Server) roundBoundaryLocked(seen []bool) {
	transitions, reelected := s.health.endRoundLocked(seen)
	for _, tr := range transitions {
		if tr.To == anchorProbation {
			s.validator.Reset(tr.Anchor)
		}
		s.log.Warn("anchor health transition", "anchor", tr.Anchor,
			"from", tr.From.String(), "to", tr.To.String(),
			"score", fmt.Sprintf("%.2f", tr.Score))
	}
	if reelected {
		s.log.Warn("reference re-elected", "ref", s.health.referenceLocked())
	}
	for _, lt := range s.health.endLatencyRoundLocked() {
		if lt.Laggy {
			s.log.Warn("anchor marked laggy, excluded from quorum waits",
				"anchor", lt.Anchor, "p95", fmt.Sprintf("%.0fms", lt.P95*1e3))
		} else {
			s.log.Warn("laggy anchor readmitted to quorum waits",
				"anchor", lt.Anchor, "p95", fmt.Sprintf("%.0fms", lt.P95*1e3))
		}
	}
}

// markDoneLocked tombstones a round, keeping its first-row time and seen
// set so late rows still feed the latency plane. Caller holds s.mu.
func (s *Server) markDoneLocked(rk roundKey, pr *pendingRound) {
	if len(s.done) >= maxDoneRounds {
		s.done = make(map[roundKey]doneRound)
	}
	s.done[rk] = doneRound{start: pr.start, seen: pr.seen}
	if rk.round > s.maxRound {
		s.maxRound = rk.round
	}
}

// broadcast sends the fix to every connected anchor.
func (s *Server) broadcast(fix *wire.Fix) {
	type target struct {
		cl *client
		id uint8
	}
	s.mu.Lock()
	targets := make([]target, 0, len(s.conns))
	for c := range s.conns {
		if c.id == 0xFF {
			continue // connection has not completed its hello yet
		}
		targets = append(targets, target{cl: c, id: c.id})
	}
	s.mu.Unlock()
	for _, t := range targets {
		if err := s.sendClient(t.cl, fix); err != nil && !errors.Is(err, errBreakerOpen) {
			s.log.Warn("fix broadcast failed", "anchor", t.id, "err", err)
		}
	}
}

// Serve blocks until ctx is cancelled, then closes the server. Convenience
// for daemon mains.
func (s *Server) Serve(ctx context.Context) error {
	<-ctx.Done()
	return s.Close()
}
