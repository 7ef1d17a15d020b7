package locserver

import (
	"net"
	"sync"
	"testing"
	"time"

	"bloc/internal/ble"
	"bloc/internal/csi"
	"bloc/internal/faultnet"
	"bloc/internal/geom"
	"bloc/internal/wire"
)

// The degradation-ladder chaos drill (`make chaos-degrade`, DESIGN.md
// §16): scripted fault schedules drive a server (and a fleet) down every
// rung of the ladder — gated CSI, full CSI, fingerprint, centroid — and
// the drill asserts each rung engages in order, with the tier counters
// matching the injected schedule exactly and the hysteresis holding
// promotions back for promoteAfter rounds.

// tierRecorder collects every delivered fix's RoundInfo in order.
type tierRecorder struct {
	mu    sync.Mutex
	infos []RoundInfo
}

func (r *tierRecorder) record(info RoundInfo, _ wire.Fix) {
	r.mu.Lock()
	r.infos = append(r.infos, info)
	r.mu.Unlock()
}

func (r *tierRecorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.infos)
}

func (r *tierRecorder) at(i int) RoundInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.infos[i]
}

// degradeServer builds the single-cell drill server: 4 anchors × 2
// bands, CSI quorum 3 anchors × 2 bands, fingerprint plane enabled with
// the default 2-anchor floor and 2-round promotion hysteresis.
func degradeServer(t *testing.T, rec *tierRecorder, fingerprint bool) *Server {
	t.Helper()
	s, err := New("127.0.0.1:0", Config{
		Anchors: 4, Antennas: 1, Bands: ble.DataChannels()[:2],
		RoundDeadline: 75 * time.Millisecond,
		MinAnchors:    3, MinBands: 2,
		Fingerprint: fingerprint,
		Logger:      quietLogger(),
		OnSnapshot: func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			return geom.Pt(float64(info.Tag), float64(info.Round)), nil
		},
		OnFix: rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// feedDegradeRound ingests one round for tag 5, with rows only from the
// listed anchors (both bands each).
func feedDegradeRound(s *Server, round uint32, anchors []int) {
	for _, a := range anchors {
		for b := uint16(0); b < 2; b++ {
			s.IngestRow(&wire.CSIRow{
				Round: round, TagID: 5, AnchorID: uint8(a), BandIdx: b,
				Tag:    []complex128{complex(float64(round), float64(b+1))},
				Master: complex(1, float64(a+1)),
			})
		}
	}
}

// TestChaosDegradeLadderWalksEveryRung scripts the fault schedule rung
// by rung on a fingerprint-enabled server:
//
//	r1–r3 full rows, tag untracked        → TierFullCSI ×3
//	r4    full rows, tag now tracked      → TierGatedCSI
//	r5    anchors {1,2,3}: silent ref     → TierFingerprint (demotion)
//	r6    anchors {1,2}: below 3-anchor
//	      floor, above the KNN floor      → TierFingerprint (coverage ext.)
//	r7    full rows again                 → TierFingerprint (holdback)
//	r8    full rows, streak == 2          → TierGatedCSI (promotion)
//
// and asserts the per-tier round counters and hysteresis transitions
// match that schedule exactly.
func TestChaosDegradeLadderWalksEveryRung(t *testing.T) {
	rec := &tierRecorder{}
	s := degradeServer(t, rec, true)
	defer s.Close()

	all := []int{0, 1, 2, 3}
	schedule := []struct {
		anchors  []int
		tier     FixTier
		coarse   bool
		fallback string // label for failures
	}{
		{all, TierFullCSI, false, "r1 warmup"},
		{all, TierFullCSI, false, "r2 warmup"},
		{all, TierFullCSI, false, "r3 warmup"},
		{all, TierGatedCSI, false, "r4 tracked"},
		{[]int{1, 2, 3}, TierFingerprint, true, "r5 silent reference"},
		{[]int{1, 2}, TierFingerprint, true, "r6 below trilateration floor"},
		{all, TierFingerprint, true, "r7 promotion holdback"},
		{all, TierGatedCSI, false, "r8 promoted"},
	}
	for i, step := range schedule {
		feedDegradeRound(s, uint32(i+1), step.anchors)
		chaosAwait(t, 5*time.Second, step.fallback, func() bool { return rec.len() == i+1 })
		info := rec.at(i)
		if info.Tier != step.tier {
			t.Fatalf("%s: served at %s, want %s", step.fallback, info.Tier, step.tier)
		}
		if info.Coarse != step.coarse {
			t.Fatalf("%s: coarse=%v, want %v", step.fallback, info.Coarse, step.coarse)
		}
		if info.Degraded {
			t.Fatalf("%s: flagged overload-degraded with no overload", step.fallback)
		}
	}

	st := s.Stats()
	if st.TierFullRounds != 3 || st.TierGatedRounds != 2 ||
		st.TierFingerprintRounds != 3 || st.TierCentroidRounds != 0 {
		t.Errorf("tier rounds full=%d gated=%d fingerprint=%d centroid=%d, want 3/2/3/0",
			st.TierFullRounds, st.TierGatedRounds, st.TierFingerprintRounds, st.TierCentroidRounds)
	}
	if st.TierDemotions != 1 || st.TierPromotions != 1 || st.TierHoldbacks != 1 {
		t.Errorf("transitions demote=%d promote=%d holdback=%d, want 1/1/1",
			st.TierDemotions, st.TierPromotions, st.TierHoldbacks)
	}
	if st.Full != 6 || st.Coarse != 2 || st.Evicted != 0 {
		t.Errorf("round outcomes full=%d coarse=%d evicted=%d, want 6/2/0",
			st.Full, st.Coarse, st.Evicted)
	}
}

// TestChaosDegradeDisabledFallsToCentroid is the ladder drill's control
// run: without a fingerprint plane the same fault schedule serves the
// silent-reference round at TierCentroid, evicts the 2-anchor round
// (no rung below the trilateration floor exists), and promotes back
// with no holdback — the seed behavior, now with explicit tiers.
func TestChaosDegradeDisabledFallsToCentroid(t *testing.T) {
	rec := &tierRecorder{}
	s := degradeServer(t, rec, false)
	defer s.Close()

	all := []int{0, 1, 2, 3}
	for r := uint32(1); r <= 4; r++ {
		feedDegradeRound(s, r, all)
		chaosAwait(t, 5*time.Second, "warmup fix", func() bool { return rec.len() == int(r) })
	}
	feedDegradeRound(s, 5, []int{1, 2, 3}) // silent reference
	chaosAwait(t, 5*time.Second, "centroid fix", func() bool { return rec.len() == 5 })
	if info := rec.at(4); info.Tier != TierCentroid || !info.Coarse {
		t.Fatalf("silent-ref round served at %s coarse=%v, want centroid/true", info.Tier, info.Coarse)
	}
	feedDegradeRound(s, 6, []int{1, 2}) // below the trilateration floor
	chaosAwait(t, 5*time.Second, "eviction", func() bool { return s.Stats().Evicted == 1 })
	feedDegradeRound(s, 7, all) // immediate promotion, no holdback
	chaosAwait(t, 5*time.Second, "promoted fix", func() bool { return rec.len() == 6 })
	if info := rec.at(5); info.Tier != TierGatedCSI || info.Coarse {
		t.Fatalf("post-outage round served at %s coarse=%v, want gated-csi/false", info.Tier, info.Coarse)
	}

	st := s.Stats()
	if st.TierCentroidRounds != 1 || st.TierFingerprintRounds != 0 {
		t.Errorf("centroid=%d fingerprint=%d, want 1/0", st.TierCentroidRounds, st.TierFingerprintRounds)
	}
	if st.TierHoldbacks != 0 || st.TierDemotions != 1 || st.TierPromotions != 1 {
		t.Errorf("transitions demote=%d promote=%d holdback=%d, want 1/1/0",
			st.TierDemotions, st.TierPromotions, st.TierHoldbacks)
	}
}

// TestChaosDegradeOverloadDemotesToFingerprint pins the overload
// demotion site's ladder integration: a CSI-grade round demoted by the
// serve mode lands on the fingerprint rung (not an unlabeled coarse
// fix), and the tag then climbs back through the same hysteresis as a
// quorum demotion.
func TestChaosDegradeOverloadDemotesToFingerprint(t *testing.T) {
	s := bareOverloadServer(8, OverloadConfig{})
	s.cfg.Fingerprint = true
	s.promoteAfter = 2
	s.mode = modeDegraded

	j1 := untrackedJob(9, 1)
	s.enqueueFixLocked(j1)
	if j1.info.Tier != TierFingerprint || !j1.info.Degraded || !j1.info.Coarse {
		t.Fatalf("overload-demoted job: %+v, want fingerprint/degraded/coarse", j1.info)
	}
	if s.stats.OverloadDegraded != 1 || s.stats.TierDemotions != 1 {
		t.Fatalf("overload=%d demotions=%d, want 1/1", s.stats.OverloadDegraded, s.stats.TierDemotions)
	}

	// The first enqueue's updateModeLocked already returned the shallow
	// queue to normal mode; the next CSI-grade round is held back.
	if s.mode != modeNormal {
		t.Fatalf("mode %v after drain-depth update, want normal", s.mode)
	}
	j2 := untrackedJob(9, 2)
	s.enqueueFixLocked(j2)
	if j2.info.Tier != TierFingerprint || !j2.info.Coarse || j2.info.Degraded {
		t.Fatalf("holdback job: %+v, want fingerprint/coarse, not overload-degraded", j2.info)
	}
	j3 := untrackedJob(9, 3)
	s.enqueueFixLocked(j3)
	if j3.info.Tier != TierFullCSI || j3.info.Coarse {
		t.Fatalf("promoted job: %+v, want full-csi", j3.info)
	}
	if s.stats.TierHoldbacks != 1 || s.stats.TierPromotions != 1 {
		t.Fatalf("holdbacks=%d promotions=%d, want 1/1", s.stats.TierHoldbacks, s.stats.TierPromotions)
	}
	if s.stats.TierFingerprintRounds != 2 || s.stats.TierFullRounds != 1 {
		t.Fatalf("fingerprint=%d full=%d rounds, want 2/1", s.stats.TierFingerprintRounds, s.stats.TierFullRounds)
	}
}

// fleetTierRecorder keeps per-delivery RoundInfo plus the home cell.
type fleetTierRecorder struct {
	mu    sync.Mutex
	infos []RoundInfo
	cells []int
}

func (r *fleetTierRecorder) record(cell int, info RoundInfo, _ wire.Fix) {
	r.mu.Lock()
	r.infos = append(r.infos, info)
	r.cells = append(r.cells, cell)
	r.mu.Unlock()
}

func (r *fleetTierRecorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.infos)
}

// TestChaosDegradeFleetFallbackTier pins the fourth demotion site: a
// down cell's neighbor-served fallback fixes carry the fleet's best
// degraded tier (fingerprint when the cell template enables it), and
// buckets discarded on revival are counted in FallbackDropped.
func TestChaosDegradeFleetFallbackTier(t *testing.T) {
	rec := &fleetTierRecorder{}
	f, err := NewFleet(FleetConfig{
		Cells: 2,
		Cell: Config{
			Anchors: 3, Antennas: 1, Bands: ble.DataChannels()[:2],
			RoundDeadline: 50 * time.Millisecond,
			Fingerprint:   true,
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
	defer f.Close()

	// Take cell 0 down the way the fleet sees it mid-restart.
	c := f.cells[0]
	c.mu.Lock()
	srv := c.srv
	c.srv = nil
	c.running = false
	c.mu.Unlock()
	srv.Close()

	// A complete round for cell 0's anchors completes a fallback bucket;
	// the fix must be flagged and stamped with the fingerprint tier.
	for a := uint8(0); a < 3; a++ {
		for b := uint16(0); b < 2; b++ {
			f.IngestRow(fleetRow(7, 1, a, b))
		}
	}
	chaosAwait(t, 5*time.Second, "fallback fix", func() bool { return rec.len() == 1 })
	rec.mu.Lock()
	info, home := rec.infos[0], rec.cells[0]
	rec.mu.Unlock()
	if !info.Fallback || !info.Coarse || info.Tier != TierFingerprint || home != 0 {
		t.Fatalf("fallback fix info=%+v home=%d, want fallback/coarse/fingerprint from home 0", info, home)
	}

	// A half-assembled bucket left behind when the cell revives is
	// discarded — and the discard is visible, not silent.
	f.IngestRow(fleetRow(7, 2, 0, 0))
	f.fb.drop(0) // what restartCell does on revival
	if got := f.Stats().FallbackDropped; got != 1 {
		t.Fatalf("FallbackDropped = %d after revival discard, want 1", got)
	}
}

// TestChaosDegradeFallbackOverflowCounted pins the collector's other
// discard path: wholesale eviction at the bucket cap counts every
// discarded bucket.
func TestChaosDegradeFallbackOverflowCounted(t *testing.T) {
	fc := newFallbackCollector(2, 1, ble.DataChannels()[:1])
	row := func(round uint32) *wire.CSIRow {
		return &wire.CSIRow{Round: round, TagID: 1, AnchorID: 0, BandIdx: 0,
			Tag: []complex128{complex(1, 1)}}
	}
	for r := uint32(0); r < maxFallbackBuckets; r++ {
		if _, done := fc.add(0, row(r)); done {
			t.Fatalf("round %d completed with one of two rows", r)
		}
	}
	fc.add(0, row(maxFallbackBuckets)) // cap hit: wholesale clear
	if got := fc.droppedCount(); got != maxFallbackBuckets {
		t.Fatalf("droppedCount = %d after cap eviction, want %d", got, maxFallbackBuckets)
	}
}

// dialDegradeAnchor connects one raw TCP anchor to addr and completes
// the hello handshake with a cell-local anchor ID.
func dialDegradeAnchor(t *testing.T, addr string, anchor uint8) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("anchor %d dial: %v", anchor, err)
	}
	if err := wire.Send(conn, &wire.Hello{
		Version: wire.ProtocolVersion, AnchorID: anchor, Antennas: 1, Bands: 2,
	}); err != nil {
		t.Fatalf("anchor %d hello: %v", anchor, err)
	}
	return conn
}

// sendDegradeRound sends one tag round over raw TCP anchor connections
// (cell-local anchor IDs, both bands each).
func sendDegradeRound(t *testing.T, conns []net.Conn, tag uint16, round uint32) {
	t.Helper()
	for a, conn := range conns {
		for b := uint16(0); b < 2; b++ {
			if err := wire.Send(conn, &wire.CSIRow{
				Round: round, TagID: tag, AnchorID: uint8(a), BandIdx: b,
				Tag:    []complex128{complex(float64(round), float64(b+1))},
				Master: complex(1, float64(a+1)),
			}); err != nil {
				t.Fatalf("anchor %d round %d: %v", a, round, err)
			}
		}
	}
}

// TestChaosDegradeIngressServesDownCell closes the PR 9 gap: TCP anchors
// of a killed cell keep a dialable address during the down window (the
// fleet owns the listener), their rows land in the fallback collector
// through the downtime ingress, and complete rounds become flagged
// coarse fixes — then the revived cell serves the same address normally.
func TestChaosDegradeIngressServesDownCell(t *testing.T) {
	killer, err := faultnet.NewCellKiller(faultnet.KillSpec{Cell: 0, Event: HookIngest, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &fleetTierRecorder{}
	f, err := NewFleet(FleetConfig{
		Cells: 2,
		Cell: Config{
			Anchors: 3, Antennas: 1, Bands: ble.DataChannels()[:2],
			RoundDeadline: 50 * time.Millisecond,
		},
		OnSnapshot: func(cell int, info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			return geom.Pt(float64(cell), float64(info.Tag)), nil
		},
		OnFix: rec.record,
		Hooks: killer.Hook,
		Supervisor: SupervisorConfig{
			// A wide down window: the raw TCP anchors below must dial,
			// hello and deliver a full round before the cell revives.
			BackoffInitial: 1500 * time.Millisecond,
			BackoffMax:     2 * time.Second,
			RestartWindow:  10 * time.Second,
			Seed:           7,
		},
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	addr := f.CellAddr(0)

	// First row into cell 0 fires the scheduled kill; the supervisor
	// takes the cell down.
	f.IngestRow(fleetRow(7, 1, 0, 0))
	if fired := killer.Fired(); len(fired) != 1 {
		t.Fatalf("kill fired %d times, want 1", len(fired))
	}
	chaosAwait(t, 2*time.Second, "cell observed down", func() bool {
		return !f.Stats().Cells[0].Running
	})
	if got := f.CellAddr(0); got != addr {
		t.Fatalf("cell address changed across the kill: %s → %s", addr, got)
	}

	// Down window: raw TCP anchors dial the same address and deliver a
	// complete round. Before PR 10 these rounds were simply lost — the
	// ingress routes them into the fallback plane.
	conns := make([]net.Conn, 3)
	for a := range conns {
		conns[a] = dialDegradeAnchor(t, addr, uint8(a))
		defer conns[a].Close()
	}
	sendDegradeRound(t, conns, 7, 2)
	chaosAwait(t, 5*time.Second, "TCP fallback fix", func() bool { return rec.len() >= 1 })
	rec.mu.Lock()
	info, home := rec.infos[0], rec.cells[0]
	rec.mu.Unlock()
	if !info.Fallback || !info.Coarse || info.Tier != TierCentroid || home != 0 || info.Tag != 7 {
		t.Fatalf("TCP down-window fix info=%+v home=%d, want fallback/coarse/centroid for tag 7 home 0", info, home)
	}

	// Revival: the same address is served by the restarted cell; a fresh
	// TCP round is a normal (non-fallback) fix.
	chaosAwait(t, 10*time.Second, "cell restarted", func() bool {
		cs := f.Stats().Cells[0]
		return cs.Running && cs.Restarts == 1
	})
	conns2 := make([]net.Conn, 3)
	for a := range conns2 {
		conns2[a] = dialDegradeAnchor(t, addr, uint8(a))
		defer conns2[a].Close()
	}
	sendDegradeRound(t, conns2, 7, 3)
	chaosAwait(t, 5*time.Second, "post-revival fix", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		for _, in := range rec.infos {
			if in.Round == 3 && !in.Fallback {
				return true
			}
		}
		return false
	})
	if fs := f.Stats(); fs.Agg.CellRestarts != 1 || fs.FallbackFixes != 1 {
		t.Errorf("restarts=%d fallbackFixes=%d, want 1/1", fs.Agg.CellRestarts, fs.FallbackFixes)
	}
}

// TestChaosDegradeBreakerHalfOpenConcurrent pins the half-open contract
// under contention: with the cooldown elapsed and many goroutines racing
// sendClient on one dead link, exactly one send is the probe — the rest
// are skips (the probe's failure re-opens the breaker), never extra
// probes or unattempted opens.
func TestChaosDegradeBreakerHalfOpenConcurrent(t *testing.T) {
	// A goroutine-free server: sendClient only needs the clock, the stats
	// mutex and the logger, and a bare server lets the test freeze the
	// clock without racing live heartbeat machinery.
	srv := bareOverloadServer(8, OverloadConfig{})
	brkCfg := BreakerConfig{Threshold: 1, Cooldown: time.Second}.withDefaults()
	base := time.Unix(500, 0)
	cur := base
	srv.now = func() time.Time { return cur }

	p1, p2 := net.Pipe()
	p2.Close() // every write on p1 fails immediately
	defer p1.Close()
	cl := &client{conn: p1, id: 1, brk: breaker{cfg: brkCfg}}

	// Trip the breaker (threshold 1), then advance past the cooldown.
	if err := srv.sendClient(cl, &wire.Heartbeat{Nonce: 1}); err == nil {
		t.Fatal("send on a closed pipe succeeded")
	}
	if srv.stats.BreakerOpens != 1 {
		t.Fatalf("opens=%d after threshold, want 1", srv.stats.BreakerOpens)
	}
	cur = base.Add(2 * time.Second) // before the racers start: no concurrent write

	const racers = 16
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.sendClient(cl, &wire.Heartbeat{Nonce: 2})
		}()
	}
	wg.Wait()

	srv.mu.Lock()
	st := srv.stats
	srv.mu.Unlock()
	if st.BreakerProbes != 1 {
		t.Errorf("probes=%d under %d concurrent sends, want exactly 1", st.BreakerProbes, racers)
	}
	if st.BreakerSkips != racers-1 {
		t.Errorf("skips=%d, want %d (every loser skips, none attempts)", st.BreakerSkips, racers-1)
	}
	if st.BreakerOpens != 2 {
		t.Errorf("opens=%d, want 2 (threshold trip + failed probe re-open)", st.BreakerOpens)
	}
}
