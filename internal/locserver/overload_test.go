package locserver

import (
	"context"
	"math"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"bloc/internal/anchor"
	"bloc/internal/ble"
	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/faultnet"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/wire"
)

// Tests for the overload-resilient serving plane (DESIGN.md §12): the
// bounded fair fix queue, the hysteretic serve-mode machine, shed
// accounting, deadline budgets, the straggler (laggy) state machine, the
// adaptive round deadline, timer-vs-teardown races, and the end-to-end
// overload drill.

// bareOverloadServer builds a Server with the overload plane initialized
// but no goroutines and no listener, for deterministic unit tests of the
// admission-control logic. Workers never run, so the queue holds exactly
// what the test put there.
func bareOverloadServer(queueCap int, ovl OverloadConfig) *Server {
	s := &Server{
		log:      quietLogger(),
		rounds:   make(map[roundKey]*pendingRound),
		done:     make(map[roundKey]doneRound),
		fq:       newFixQueue(queueCap),
		busyTags: make(map[uint16]bool),
		ovl:      ovl.withDefaults(queueCap),
		tagHist:  make(map[uint16]tagHistory),
		fixes:    make(chan wire.Fix, 16),
		now:      time.Now,

		tiers:        make(map[uint16]tierState),
		promoteAfter: 1,
	}
	s.fixCond = sync.NewCond(&s.mu)
	return s
}

func untrackedJob(tag uint16, round uint32) *fixJob {
	return &fixJob{rk: roundKey{tag: tag, round: round}, info: RoundInfo{Tag: tag, Round: round}}
}

// TestServeModeHysteresis walks the three-state machine across every
// watermark and checks the hysteresis bands: depths inside a band never
// change the mode, so a queue oscillating around one watermark cannot
// flap.
func TestServeModeHysteresis(t *testing.T) {
	s := bareOverloadServer(8, OverloadConfig{}) // watermarks: degrade 4/2, shed 6/3
	step := func(depth int, want serveMode) {
		t.Helper()
		s.fq.size = depth
		s.updateModeLocked()
		if s.mode != want {
			t.Fatalf("depth %d: mode %v, want %v", depth, s.mode, want)
		}
	}
	step(0, modeNormal)
	step(3, modeNormal)   // below DegradeHigh: stays
	step(4, modeDegraded) // enter degraded
	step(5, modeDegraded)
	step(3, modeDegraded) // inside the band: no flap back
	step(2, modeNormal)   // at DegradeLow: exit
	step(4, modeDegraded)
	step(6, modeShedding) // enter shedding
	step(4, modeShedding) // above ShedLow: stays shedding
	step(3, modeDegraded) // at ShedLow: drop one level
	step(2, modeNormal)
	step(7, modeShedding) // normal can jump straight to shedding
	if got := s.stats.ModeChanges; got != 7 {
		t.Errorf("ModeChanges = %d, want 7", got)
	}
}

// TestShedPriorityAccounting pins the admission policy: untracked tags
// are shed in shedding mode and at a full queue; tracked tags evict an
// untracked victim instead of being refused; every drop increments
// OverloadShed and every demotion increments OverloadDegraded.
func TestShedPriorityAccounting(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	cur := base
	s := bareOverloadServer(8, OverloadConfig{})
	s.now = func() time.Time { return cur }

	// Tag 1 earns tracked status; tag 2 has no history.
	for i := 0; i < trackedMinFixes; i++ {
		s.noteFixLocked(1)
	}
	if !s.trackedLocked(1) || s.trackedLocked(2) {
		t.Fatalf("tracked(1)=%v tracked(2)=%v, want true/false", s.trackedLocked(1), s.trackedLocked(2))
	}
	// Tracked status expires with the TTL.
	cur = base.Add(s.ovl.TrackedTTL + time.Second)
	if s.trackedLocked(1) {
		t.Error("tag 1 still tracked past TrackedTTL")
	}
	cur = base

	// Shedding mode drops untracked rounds outright and admits (demoted)
	// tracked ones.
	s.mode = modeShedding
	s.enqueueFixLocked(untrackedJob(2, 1))
	if s.stats.OverloadShed != 1 || s.fq.size != 0 {
		t.Fatalf("untracked round not shed: shed=%d size=%d", s.stats.OverloadShed, s.fq.size)
	}
	j1 := untrackedJob(1, 1)
	s.enqueueFixLocked(j1)
	if s.fq.size != 1 || !j1.info.Coarse || !j1.info.Degraded || s.stats.OverloadDegraded != 1 {
		t.Fatalf("tracked round not admitted+demoted: size=%d info=%+v degraded=%d",
			s.fq.size, j1.info, s.stats.OverloadDegraded)
	}

	// Full queue: a tracked round evicts a queued untracked victim.
	s2 := bareOverloadServer(4, OverloadConfig{})
	s2.now = func() time.Time { return cur }
	for i := 0; i < trackedMinFixes; i++ {
		s2.noteFixLocked(1)
	}
	for tag := uint16(10); tag < 14; tag++ {
		s2.fq.pushLocked(untrackedJob(tag, 1))
	}
	s2.enqueueFixLocked(untrackedJob(1, 2))
	if s2.fq.size != 4 {
		t.Fatalf("queue size %d after tracked admission, want 4 (cap)", s2.fq.size)
	}
	if _, ok := s2.fq.perTag[1]; !ok {
		t.Error("tracked tag 1 refused at a full queue")
	}
	if _, ok := s2.fq.perTag[13]; ok {
		t.Error("newest untracked victim (tag 13) not evicted")
	}
	if s2.stats.OverloadShed != 1 {
		t.Errorf("OverloadShed = %d, want 1 (the eviction)", s2.stats.OverloadShed)
	}
	// Full queue, untracked incoming: the victim is re-queued and the
	// incoming round dropped.
	s2.mode = modeDegraded // below shedding, so the full-queue branch decides
	s2.enqueueFixLocked(untrackedJob(14, 1))
	if s2.fq.size != 4 {
		t.Fatalf("queue size %d after untracked refusal, want 4", s2.fq.size)
	}
	if _, ok := s2.fq.perTag[14]; ok {
		t.Error("untracked round admitted to a full queue")
	}
	if _, ok := s2.fq.perTag[12]; !ok {
		t.Error("eviction victim not re-queued when the incoming round was untracked")
	}
	if s2.stats.OverloadShed != 2 {
		t.Errorf("OverloadShed = %d, want 2", s2.stats.OverloadShed)
	}
}

// TestFixBudgetDrops pins the deadline budget on both sides of
// localization: a job already past its budget is dropped before the
// callback ever runs, and a fix computed too slowly is dropped before
// broadcast — late is lost, never delivered stale.
func TestFixBudgetDrops(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	cur := base
	s := bareOverloadServer(8, OverloadConfig{})
	s.now = func() time.Time { return cur }
	s.cfg.FixBudget = 50 * time.Millisecond
	called := 0
	s.cfg.OnSnapshot = func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
		called++
		return geom.Pt(1, 2), nil
	}
	job := func() *fixJob {
		j := untrackedJob(1, 1)
		j.start = base
		return j
	}

	// Already over budget: dropped before localization.
	cur = base.Add(60 * time.Millisecond)
	s.runFix(job())
	if called != 0 || s.stats.BudgetExceeded != 1 {
		t.Fatalf("pre-localization drop: called=%d budget=%d, want 0/1", called, s.stats.BudgetExceeded)
	}
	// Budget exhausted inside the callback: dropped before broadcast.
	cur = base
	s.cfg.OnSnapshot = func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
		called++
		cur = base.Add(100 * time.Millisecond)
		return geom.Pt(1, 2), nil
	}
	s.runFix(job())
	if called != 1 || s.stats.BudgetExceeded != 2 {
		t.Fatalf("pre-broadcast drop: called=%d budget=%d, want 1/2", called, s.stats.BudgetExceeded)
	}
	select {
	case f := <-s.fixes:
		t.Fatalf("stale fix delivered: %+v", f)
	default:
	}
	// Within budget: delivered, and the tag's history advances.
	cur = base
	s.cfg.OnSnapshot = func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
		called++
		return geom.Pt(1, 2), nil
	}
	s.runFix(job())
	select {
	case f := <-s.fixes:
		if f.TagID != 1 || f.X != 1 || f.Y != 2 {
			t.Errorf("fix = %+v, want tag 1 at (1,2)", f)
		}
	default:
		t.Fatal("in-budget fix not delivered")
	}
	if h := s.tagHist[1]; h.fixes != 1 {
		t.Errorf("tag history fixes = %d, want 1", h.fixes)
	}
}

// TestFixQueueFairness pins per-tag round-robin draining: a hot tag with
// a deep FIFO cannot starve other tags, and a tag with a fix in flight is
// skipped without stalling the rest of the ring.
func TestFixQueueFairness(t *testing.T) {
	q := newFixQueue(16)
	for _, tag := range []uint16{1, 1, 1, 2, 3} {
		q.pushLocked(untrackedJob(tag, 1))
	}
	busy := map[uint16]bool{}
	var order []uint16
	for j := q.popLocked(busy); j != nil; j = q.popLocked(busy) {
		order = append(order, j.info.Tag)
	}
	want := []uint16{1, 2, 3, 1, 1}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
	if q.size != 0 {
		t.Fatalf("queue size %d after draining, want 0", q.size)
	}
	// A busy tag is skipped; the others still drain; the busy tag's jobs
	// surface once it frees.
	for _, tag := range []uint16{1, 1, 2} {
		q.pushLocked(untrackedJob(tag, 2))
	}
	busy[1] = true
	if j := q.popLocked(busy); j == nil || j.info.Tag != 2 {
		t.Fatalf("pop with tag 1 busy = %+v, want tag 2", j)
	}
	if j := q.popLocked(busy); j != nil {
		t.Fatalf("pop returned %+v with only busy tags queued, want nil", j)
	}
	delete(busy, 1)
	if j := q.popLocked(busy); j == nil || j.info.Tag != 1 {
		t.Fatalf("pop after unbusy = %+v, want tag 1", j)
	}
}

// latRound feeds one latency observation per anchor and closes the
// latency round boundary.
func latRound(h *healthTracker, lats []time.Duration) []lagTransition {
	for i, d := range lats {
		h.observeLatencyLocked(i, d)
	}
	return h.endLatencyRoundLocked()
}

// TestLaggyMarkAndReadmit drives the straggler state machine through a
// full episode: a slow anchor is marked laggy only after LaggyRounds
// consecutive slow rounds (no single-round exile), and readmitted only
// after LaggyRounds consecutive punctual rounds (no single-round
// readmission) — the same hysteresis discipline quarantine uses.
func TestLaggyMarkAndReadmit(t *testing.T) {
	ms := time.Millisecond
	h := newHealthTracker(4, HealthConfig{LatAlpha: 1, LaggyRounds: 2, Seed: 1})
	slow := []time.Duration{ms, ms, ms, 60 * ms}
	fast := []time.Duration{ms, ms, ms, ms}

	if trs := latRound(h, slow); len(trs) != 0 {
		t.Fatalf("marked laggy after one slow round: %+v", trs)
	}
	trs := latRound(h, slow)
	if len(trs) != 1 || trs[0].Anchor != 3 || !trs[0].Laggy {
		t.Fatalf("transitions after %d slow rounds = %+v, want anchor 3 laggy", h.cfg.LaggyRounds, trs)
	}
	if h.lagMarks != 1 || !h.laggySetLocked()[3] {
		t.Fatalf("lagMarks=%d laggy[3]=%v, want 1/true", h.lagMarks, h.laggySetLocked()[3])
	}
	// Recovery: the first fast round inflates the deviation EWMA (the
	// drop from 60ms is itself a deviation), so readmission takes the
	// EWMA settling plus LaggyRounds clean rounds — never one round.
	if trs := latRound(h, fast); len(trs) != 0 {
		t.Fatalf("readmitted after one fast round: %+v", trs)
	}
	if trs := latRound(h, fast); len(trs) != 0 {
		t.Fatalf("readmitted before %d clean rounds: %+v", h.cfg.LaggyRounds, trs)
	}
	trs = latRound(h, fast)
	if len(trs) != 1 || trs[0].Anchor != 3 || trs[0].Laggy {
		t.Fatalf("transitions after recovery = %+v, want anchor 3 readmitted", trs)
	}
	if h.lagReadmits != 1 || h.laggyCountLocked() != 0 {
		t.Errorf("lagReadmits=%d laggyCount=%d, want 1/0", h.lagReadmits, h.laggyCountLocked())
	}
}

// TestLaggyQuorumFloor verifies the two-anchor floor: with two of four
// anchors already laggy, a third slow anchor is never excluded — the
// estimator needs someone left to wait for.
func TestLaggyQuorumFloor(t *testing.T) {
	ms := time.Millisecond
	h := newHealthTracker(4, HealthConfig{LatAlpha: 1, LaggyRounds: 1, Seed: 1})
	latRound(h, []time.Duration{ms, ms, ms, 60 * ms})
	if !h.laggySetLocked()[3] {
		t.Fatal("anchor 3 not marked")
	}
	latRound(h, []time.Duration{ms, ms, 60 * ms, 60 * ms})
	if !h.laggySetLocked()[2] {
		t.Fatal("anchor 2 not marked")
	}
	for r := 0; r < 5; r++ {
		latRound(h, []time.Duration{ms, 60 * ms, 60 * ms, 60 * ms})
	}
	if h.laggySetLocked()[1] {
		t.Error("anchor 1 marked laggy below the two-anchor floor")
	}
	if got := h.laggyCountLocked(); got != 2 {
		t.Errorf("laggy count = %d, want 2 (floor)", got)
	}
	if h.lagMarks != 2 {
		t.Errorf("lagMarks = %d, want 2", h.lagMarks)
	}
}

// TestLaggySilenceNotQuarantined pins lateness ≠ corruption: a laggy
// anchor absent from completing rounds (they finish early without it by
// design) must not have its health score decayed toward quarantine — but
// a punctual anchor going silent still must, since that is the dead-radio
// signal the quarantine plane exists for.
func TestLaggySilenceNotQuarantined(t *testing.T) {
	ms := time.Millisecond
	h := newHealthTracker(4, HealthConfig{
		LatAlpha: 1, LaggyRounds: 1, Seed: 1,
		CooldownRounds: 4, CooldownJitter: -1,
	})
	latRound(h, []time.Duration{ms, ms, ms, 60 * ms})
	if !h.laggySetLocked()[3] {
		t.Fatal("anchor 3 not marked laggy")
	}
	// Many rounds complete without the laggy anchor: rows from the three
	// punctual anchors, the laggy one absent.
	seen := []bool{true, true, true, false}
	for r := 0; r < 20; r++ {
		for i := 0; i < 3; i++ {
			h.observeLocked(i, csi.RowOK)
		}
		h.endRoundLocked(seen)
	}
	if got := h.scoreLocked(3); got != 1 {
		t.Errorf("laggy anchor's score decayed to %.2f during excluded rounds, want 1 (untouched)", got)
	}
	if got := h.stateLocked(3); got != anchorHealthy {
		t.Errorf("laggy anchor state %v, want healthy (lateness is not corruption)", got)
	}
	if h.quarantines != 0 {
		t.Errorf("quarantines = %d, want 0", h.quarantines)
	}
	// Control: the same silence from a non-laggy anchor decays its score
	// into quarantine.
	for r := 0; r < 20 && h.stateLocked(2) != anchorQuarantined; r++ {
		for i := 0; i < 2; i++ {
			h.observeLocked(i, csi.RowOK)
		}
		h.endRoundLocked([]bool{true, true, false, false})
	}
	if got := h.stateLocked(2); got != anchorQuarantined {
		t.Errorf("punctual-but-silent anchor state %v, want quarantined", got)
	}
}

// TestAdaptiveDeadlineClamps pins the adaptive deadline's derivation and
// both clamps: headroom × worst non-laggy p95, never below max/10, never
// above the configured ceiling, and exactly the ceiling before any
// latency has been observed.
func TestAdaptiveDeadlineClamps(t *testing.T) {
	max := time.Second
	h := newHealthTracker(2, HealthConfig{LatAlpha: 1, Seed: 1})
	if got := h.adaptiveDeadlineLocked(max); got != max {
		t.Fatalf("deadline with no history = %v, want %v", got, max)
	}
	feed := func(d time.Duration) {
		// Twice: the first observation seeds the EWMA, the second zeroes
		// the deviation (alpha 1), making p95 == d exactly.
		for i := 0; i < 2; i++ {
			h.observeLatencyLocked(0, d)
			h.observeLatencyLocked(1, d)
		}
	}
	feed(50 * time.Millisecond)
	if got := h.adaptiveDeadlineLocked(max); got != 100*time.Millisecond {
		t.Errorf("deadline = %v, want 100ms (2× worst p95)", got)
	}
	feed(time.Microsecond)
	if got := h.adaptiveDeadlineLocked(max); got != max/10 {
		t.Errorf("deadline = %v, want floor %v", got, max/10)
	}
	feed(10 * time.Second)
	if got := h.adaptiveDeadlineLocked(max); got != max {
		t.Errorf("deadline = %v, want ceiling %v", got, max)
	}
	// A laggy anchor's p95 never widens the deadline.
	feed(time.Microsecond)
	h.anchors[1].lat, h.anchors[1].laggy = 10, true
	if got := h.adaptiveDeadlineLocked(max); got != max/10 {
		t.Errorf("deadline = %v with a slow laggy anchor, want floor %v", got, max/10)
	}
}

// TestAdaptiveDeadlineRequiresRoundDeadline pins the config invariant:
// adaptive deadlines scale a configured ceiling, so a zero RoundDeadline
// is a construction error, not a silent no-op.
func TestAdaptiveDeadlineRequiresRoundDeadline(t *testing.T) {
	_, err := New("127.0.0.1:0", Config{
		Anchors: 2, Antennas: 1, Bands: ble.DataChannels()[:2],
		AdaptiveDeadline: true,
		Logger:           quietLogger(),
		OnSnapshot: func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
			return geom.Point{}, nil
		},
	})
	if err == nil {
		t.Fatal("AdaptiveDeadline without RoundDeadline accepted")
	}
}

// TestRoundDeadlineTeardownRace hammers the timer-vs-teardown interface:
// rounds with millisecond deadlines are created while the server is
// concurrently Closed or Drained. Must be clean under -race — deadline
// completion is an enqueue under the same lock teardown serializes on,
// so no half-finished completion can outlive the server.
func TestRoundDeadlineTeardownRace(t *testing.T) {
	for i := 0; i < 12; i++ {
		srv, err := New("127.0.0.1:0", Config{
			Anchors: 2, Antennas: 1, Bands: ble.DataChannels()[:3],
			RoundDeadline: time.Millisecond,
			FixQueueDepth: 4,
			Logger:        quietLogger(),
			OnSnapshot: func(RoundInfo, *csi.Snapshot) (geom.Point, error) {
				return geom.Pt(0, 0), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := uint32(1); r <= 40; r++ {
				for a := uint8(0); a < 2; a++ {
					for b := uint16(0); b < 3; b++ {
						srv.ingest(&wire.CSIRow{
							Round: r, TagID: 7, AnchorID: a, BandIdx: b,
							Tag:    []complex128{complex(float64(r), float64(b+1))},
							Master: complex(1, float64(a+1)),
						})
					}
				}
				if r%8 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
		time.Sleep(time.Duration(i%4) * 500 * time.Microsecond)
		if i%2 == 0 {
			if err := srv.Close(); err != nil {
				t.Fatalf("iteration %d: close: %v", i, err)
			}
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			if err := srv.Drain(ctx); err != nil {
				t.Fatalf("iteration %d: drain: %v", i, err)
			}
			cancel()
		}
		wg.Wait()
	}
}

// TestOverloadDrill is the acceptance scenario (ISSUE 6): a seeded 10×
// tag burst lands on a fleet whose last two anchors have turned slow.
// The server must keep ingesting (queue depth bounded at the cap), shed
// and degrade by priority with every decision counted, mark the slow
// anchors laggy, and — once the load subsides and the stragglers speed
// back up — return tracked-tag accuracy to the pre-burst baseline.
func TestOverloadDrill(t *testing.T) {
	const (
		seed     = 91
		deadline = 300 * time.Millisecond
		queueCap = 8
	)
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", Config{
		Anchors:          len(dep.Anchors),
		Antennas:         dep.Anchors[0].N,
		Bands:            dep.Bands,
		RoundDeadline:    deadline,
		MinAnchors:       2,
		AdaptiveDeadline: true,
		FixWorkers:       1,
		FixQueueDepth:    queueCap,
		FixBudget:        10 * time.Second,
		Overload:         OverloadConfig{TrackedTTL: 5 * time.Minute},
		Health:           HealthConfig{LatAlpha: 0.5, Seed: seed},
		Logger:           quietLogger(),
		OnSnapshot: func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			if info.Coarse {
				res, err := eng.LocateRSSI(snap)
				if err != nil {
					return geom.Point{}, err
				}
				return res.Estimate, nil
			}
			// Stand-in for the full grid search's CPU cost: without it the
			// drill's queue could drain as fast as it fills on a fast
			// machine and overload would depend on scheduling luck.
			time.Sleep(8 * time.Millisecond)
			res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref})
			if err != nil {
				return geom.Point{}, err
			}
			return res.Estimate, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Daemons; the last two dial through a toggleable delay injector.
	var delayMu sync.Mutex
	delays := map[int]*faultnet.DelayConn{}
	daemons := make([]*anchor.Daemon, len(dep.Anchors))
	for i := range daemons {
		depI, err := testbed.Paper(seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := anchor.New(i, depI, quietLogger())
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(daemons)-2 {
			id := i
			d.Dial = func(addr string) (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				dc := faultnet.WrapDelayConn(c, faultnet.DelayConfig{
					Seed: seed, Base: 500 * time.Microsecond,
				}, uint64(id))
				dc.SetSlow(false)
				delayMu.Lock()
				delays[id] = dc
				delayMu.Unlock()
				return dc, nil
			}
		}
		if err := d.Connect(srv.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		daemons[i] = d
	}
	setSlow := func(on bool) {
		delayMu.Lock()
		defer delayMu.Unlock()
		for _, dc := range delays {
			dc.SetSlow(on)
		}
	}

	// The offered load schedule: 2 tags per round, 20 during the burst.
	burst := faultnet.Burst{BaseTags: 2, Factor: 10, Start: 7, Rounds: 4}
	tagPos := func(tag uint16) geom.Point {
		return geom.Pt(-1.2+0.3*float64(tag%9), -1.0+0.35*float64(tag/9))
	}

	// Fix collector.
	var fixMu sync.Mutex
	got := map[[2]uint32]geom.Point{}
	collectorDone := make(chan struct{})
	defer close(collectorDone)
	go func() {
		for {
			select {
			case f := <-srv.Fixes():
				fixMu.Lock()
				got[[2]uint32{uint32(f.TagID), f.Round}] = geom.Pt(f.X, f.Y)
				fixMu.Unlock()
			case <-collectorDone:
				return
			}
		}
	}()
	waitFix := func(tag uint16, round uint32, timeout time.Duration) (geom.Point, bool) {
		until := time.Now().Add(timeout)
		for time.Now().Before(until) {
			fixMu.Lock()
			p, ok := got[[2]uint32{uint32(tag), round}]
			fixMu.Unlock()
			if ok {
				return p, true
			}
			time.Sleep(2 * time.Millisecond)
		}
		return geom.Point{}, false
	}
	sendRound := func(round uint32, tags []uint16) {
		var wg sync.WaitGroup
		for _, d := range daemons {
			wg.Add(1)
			go func(d *anchor.Daemon) {
				defer wg.Done()
				for _, tg := range tags {
					if err := d.MeasureAndReport(tg, round, tagPos(tg)); err != nil {
						t.Errorf("round %d tag %d: %v", round, tg, err)
					}
				}
			}(d)
		}
		wg.Wait()
	}
	median := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}

	// Phase 1 — baseline: tags 1 and 2 earn tracked status and set the
	// accuracy bar.
	var baseErrs []float64
	for r := uint32(1); r < burst.Start; r++ {
		sendRound(r, burst.Tags(r))
		if p, ok := waitFix(1, r, 5*time.Second); ok {
			baseErrs = append(baseErrs, p.Dist(tagPos(1)))
		}
		waitFix(2, r, 2*time.Second)
	}
	if len(baseErrs) < 4 {
		t.Fatalf("baseline produced %d tag-1 fixes of %d rounds (stats %+v)",
			len(baseErrs), burst.Start-1, srv.Stats())
	}
	baseMed := median(baseErrs)

	// Phase 2 — the storm: two anchors turn slow, load goes 10×. Fast
	// daemons blast all four rounds; the slow ones trickle behind.
	setSlow(true)
	var bw sync.WaitGroup
	for _, d := range daemons {
		bw.Add(1)
		go func(d *anchor.Daemon) {
			defer bw.Done()
			for r := burst.Start; burst.Active(r); r++ {
				for _, tg := range burst.Tags(r) {
					if err := d.MeasureAndReport(tg, r, tagPos(tg)); err != nil {
						t.Errorf("burst round %d tag %d: %v", r, tg, err)
					}
				}
			}
		}(d)
	}
	bw.Wait()
	setSlow(false)

	mid := srv.Stats()
	if mid.QueuePeak > queueCap {
		t.Errorf("queue peak %d exceeded cap %d", mid.QueuePeak, queueCap)
	}
	if mid.OverloadShed == 0 {
		t.Errorf("no rounds shed under a 10× burst (stats %+v)", mid)
	}
	if mid.OverloadDegraded == 0 {
		t.Errorf("no rounds demoted to the coarse fix under overload (stats %+v)", mid)
	}
	if mid.ModeChanges < 2 {
		t.Errorf("ModeChanges = %d, want ≥ 2 (escalate and recover)", mid.ModeChanges)
	}
	if mid.LaggyMarks == 0 {
		t.Errorf("slow anchors never marked laggy (stats %+v)", mid)
	}

	// Phase 3 — recovery: normal load, punctual anchors. Wait for the
	// planes to readmit everyone, then measure five clean rounds.
	r := burst.Start + burst.Rounds - 1
	recovered := false
	for extra := 0; extra < 80; extra++ {
		r++
		sendRound(r, burst.Tags(r))
		waitFix(1, r, time.Second)
		st := srv.Stats()
		if st.LaggyAnchors == 0 && st.Readmissions >= st.Quarantines && st.Mode == 0 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("fleet never recovered after the burst (stats %+v)", srv.Stats())
	}
	var recErrs []float64
	var recRounds []uint32
	for i := 0; i < 5; i++ {
		r++
		sendRound(r, burst.Tags(r))
		if p, ok := waitFix(1, r, 5*time.Second); ok {
			recErrs = append(recErrs, p.Dist(tagPos(1)))
			recRounds = append(recRounds, r)
		}
	}
	if len(recErrs) < 4 {
		t.Fatalf("recovery produced %d tag-1 fixes of 5 rounds (stats %+v)", len(recErrs), srv.Stats())
	}
	recMed := median(recErrs)
	// Baseline parity must be reference-aware: the burst can legitimately
	// re-elect the reference (e.g. the master itself turns slow), and
	// single-position error is reference-dependent — at some positions one
	// reference's multipath draw is metres worse than another's, which
	// says nothing about the serving plane. The bar is therefore what the
	// identical clean pipeline produces for the same rounds under the
	// recovered reference: the daemons' forks are deterministic, so the
	// oracle recomputes exactly the snapshots the server assembled.
	ref := srv.Stats().Reference
	var cleanErrs []float64
	for _, rr := range recRounds {
		snap := dep.Fork(uint64(1)<<32 | uint64(rr)).Sounding(tagPos(1))
		res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: ref})
		if err != nil {
			t.Fatalf("oracle round %d ref %d: %v", rr, ref, err)
		}
		cleanErrs = append(cleanErrs, res.Estimate.Dist(tagPos(1)))
	}
	cleanMed := median(cleanErrs)
	// Within 10% of the clean pipeline, with a small absolute allowance so
	// a centimeter-scale baseline cannot fail on simulation noise. When the
	// reference never moved this is the pre-burst baseline restated (same
	// pipeline, same reference), so log the pre-burst median for context.
	tol := math.Max(1.15*cleanMed, cleanMed+0.3)
	if recMed > tol {
		t.Errorf("recovered median error %.3fm vs clean-pipeline %.3fm at reference %d "+
			"(tolerance %.3fm; pre-burst baseline %.3fm; stats %+v)",
			recMed, cleanMed, ref, tol, baseMed, srv.Stats())
	}

	final := srv.Stats()
	if final.LaggyReadmits < 1 {
		t.Errorf("laggy anchors never readmitted (stats %+v)", final)
	}
	if final.EarlyCompletions < 1 {
		t.Errorf("no early completions while stragglers were excluded (stats %+v)", final)
	}
}
