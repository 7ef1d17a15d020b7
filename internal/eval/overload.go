package eval

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"bloc/internal/anchor"
	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/faultnet"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/testbed"
)

// ---------------------------------------------------------------------------
// Overload drill: the serving plane (DESIGN.md §12) exists so a burst of
// offered load with slow anchors in the fleet degrades *by policy* —
// admission control sheds untracked tags, tracked tags demote to the
// coarse fix, stragglers drop out of quorum waits — instead of by luck.
// This ablation runs the whole pipeline end to end (real server, real
// anchor daemons, a seeded delay injector on two of them, a 10× tag
// burst) and prices the episode: what was shed, what was degraded, how
// bounded the queue stayed, and how fast tracked-tag accuracy returns to
// the pre-burst baseline once the storm passes.

// OverloadPhase is one phase's tracked-tag accuracy.
type OverloadPhase struct {
	Rounds int        // acquisition rounds measured
	Fixes  int        // tracked-tag fixes delivered
	Err    ErrorStats // tracked-tag localization error
}

// OverloadResult is the measured overload episode.
type OverloadResult struct {
	QueueCap  int // fix-queue bound the server ran with
	BurstTags int // tags offered per round inside the burst window

	Baseline OverloadPhase // pre-burst, punctual fleet
	Recovery OverloadPhase // post-burst, after the planes cleared

	// RecoveryRounds is how many rounds after the burst window the fleet
	// needed before every plane was clear again (no laggy anchors, all
	// quarantined anchors readmitted, serve mode back to normal).
	RecoveryRounds int

	// Reference is the anchor elected as α-correction reference after the
	// episode; a burst can legitimately move it (e.g. the master turned
	// slow), and single-position error is reference-dependent.
	Reference int
	// CleanErr is the oracle: the identical clean pipeline localizing the
	// same recovery rounds under the recovered reference. Recovery parity
	// is Recovery.Err vs CleanErr, which stays meaningful across a
	// re-election; when the reference never moved it restates Baseline.
	CleanErr ErrorStats

	Mid   locserver.Stats // counters right after the burst window
	Final locserver.Stats // counters at the end of the drill
}

// AblationOverload reproduces the acceptance drill as a reportable
// experiment: four anchors on the paper geometry, the last two dialing
// through a seeded delay injector, two tracked tags at steady state and
// a 10× tag burst landing while the stragglers are slow.
func AblationOverload(seed uint64) (*OverloadResult, error) {
	const (
		deadline = 300 * time.Millisecond
		queueCap = 8
	)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	dep, err := testbed.Paper(seed)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return nil, err
	}
	srv, err := locserver.New("127.0.0.1:0", locserver.Config{
		Anchors:          len(dep.Anchors),
		Antennas:         dep.Anchors[0].N,
		Bands:            dep.Bands,
		RoundDeadline:    deadline,
		MinAnchors:       2,
		AdaptiveDeadline: true,
		FixWorkers:       1,
		FixQueueDepth:    queueCap,
		FixBudget:        10 * time.Second,
		Overload:         locserver.OverloadConfig{TrackedTTL: 5 * time.Minute},
		Health:           locserver.HealthConfig{LatAlpha: 0.5, Seed: seed},
		Logger:           quiet,
		OnSnapshot: func(info locserver.RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			if info.Coarse {
				res, err := eng.LocateRSSI(snap)
				if err != nil {
					return geom.Point{}, err
				}
				return res.Estimate, nil
			}
			// Stand-in for the full grid search's CPU cost so overload
			// pressure does not depend on the host machine's speed.
			//lint:ignore clockcheck the drill simulates solver latency in real time on purpose
			time.Sleep(8 * time.Millisecond)
			res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref})
			if err != nil {
				return geom.Point{}, err
			}
			return res.Estimate, nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Daemons; the last two dial through a toggleable delay injector.
	var delayMu sync.Mutex
	delays := map[int]*faultnet.DelayConn{}
	daemons := make([]*anchor.Daemon, len(dep.Anchors))
	for i := range daemons {
		depI, err := testbed.Paper(seed)
		if err != nil {
			return nil, err
		}
		d, err := anchor.New(i, depI, quiet)
		if err != nil {
			return nil, err
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
			return nil, err
		}
		defer d.Close()
		daemons[i] = d
	}
	setSlow := func(on bool) {
		delayMu.Lock()
		defer delayMu.Unlock()
		for _, dc := range delays {
			dc.SetSlow(on)
		}
	}

	// Offered load: 2 tags per round, 20 during the burst window.
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
		//lint:ignore clockcheck drill harness polls real wall time; it is the test driver, not the server
		until := time.Now().Add(timeout)
		//lint:ignore clockcheck see above
		for time.Now().Before(until) {
			fixMu.Lock()
			p, ok := got[[2]uint32{uint32(tag), round}]
			fixMu.Unlock()
			if ok {
				return p, true
			}
			//lint:ignore clockcheck see above
			time.Sleep(2 * time.Millisecond)
		}
		return geom.Point{}, false
	}
	var sendMu sync.Mutex
	var sendErr error
	noteErr := func(err error) {
		sendMu.Lock()
		if sendErr == nil {
			sendErr = err
		}
		sendMu.Unlock()
	}
	sendRound := func(round uint32, tags []uint16) {
		var wg sync.WaitGroup
		for _, d := range daemons {
			wg.Add(1)
			go func(d *anchor.Daemon) {
				defer wg.Done()
				for _, tg := range tags {
					if err := d.MeasureAndReport(tg, round, tagPos(tg)); err != nil {
						noteErr(fmt.Errorf("round %d tag %d: %w", round, tg, err))
					}
				}
			}(d)
		}
		wg.Wait()
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
		return nil, fmt.Errorf("overload: baseline produced %d tag-1 fixes of %d rounds (stats %+v)",
			len(baseErrs), burst.Start-1, srv.Stats())
	}

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
						noteErr(fmt.Errorf("burst round %d tag %d: %w", r, tg, err))
					}
				}
			}
		}(d)
	}
	bw.Wait()
	setSlow(false)
	mid := srv.Stats()

	// Phase 3 — recovery: normal load, punctual anchors. Wait for the
	// planes to clear, then measure five clean rounds.
	r := burst.Start + burst.Rounds - 1
	recoveryRounds := 0
	recovered := false
	for extra := 0; extra < 80; extra++ {
		r++
		recoveryRounds++
		sendRound(r, burst.Tags(r))
		waitFix(1, r, time.Second)
		st := srv.Stats()
		if st.LaggyAnchors == 0 && st.Readmissions >= st.Quarantines && st.Mode == 0 {
			recovered = true
			break
		}
	}
	if !recovered {
		return nil, fmt.Errorf("overload: fleet never recovered after the burst (stats %+v)", srv.Stats())
	}
	var recErrs, cleanErrs []float64
	const recRounds = 5
	ref := srv.Stats().Reference
	for i := 0; i < recRounds; i++ {
		r++
		sendRound(r, burst.Tags(r))
		if p, ok := waitFix(1, r, 5*time.Second); ok {
			recErrs = append(recErrs, p.Dist(tagPos(1)))
			// The daemons' forks are deterministic, so the oracle
			// recomputes exactly the snapshot the server assembled.
			snap := dep.Fork(uint64(1)<<32 | uint64(r)).Sounding(tagPos(1))
			res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: ref})
			if err != nil {
				return nil, fmt.Errorf("overload: oracle round %d ref %d: %w", r, ref, err)
			}
			cleanErrs = append(cleanErrs, res.Estimate.Dist(tagPos(1)))
		}
	}
	if len(recErrs) == 0 {
		return nil, fmt.Errorf("overload: recovery produced no tag-1 fixes (stats %+v)", srv.Stats())
	}
	if sendErr != nil {
		return nil, sendErr
	}

	sort.Float64s(baseErrs)
	sort.Float64s(recErrs)
	return &OverloadResult{
		QueueCap:  queueCap,
		BurstTags: len(burst.Tags(burst.Start)),
		Baseline: OverloadPhase{
			Rounds: int(burst.Start) - 1,
			Fixes:  len(baseErrs),
			Err:    NewErrorStats(baseErrs),
		},
		Recovery: OverloadPhase{
			Rounds: recRounds,
			Fixes:  len(recErrs),
			Err:    NewErrorStats(recErrs),
		},
		RecoveryRounds: recoveryRounds,
		Reference:      ref,
		CleanErr:       NewErrorStats(cleanErrs),
		Mid:            mid,
		Final:          srv.Stats(),
	}, nil
}

// OverloadTable renders the overload episode.
func OverloadTable(r *OverloadResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Ablation — overload drill (serving plane; %d× tag burst, "+
			"2 slow anchors, fix queue capped at %d)", r.BurstTags/2, r.QueueCap),
		Columns: []string{"measure", "value"},
	}
	t.AddRow("tracked-tag median, baseline (cm)", Cm(r.Baseline.Err.Median))
	t.AddRow("tracked-tag median, recovered (cm)", Cm(r.Recovery.Err.Median))
	t.AddRow(fmt.Sprintf("clean-pipeline median at recovered reference %d (cm)", r.Reference),
		Cm(r.CleanErr.Median))
	t.AddRow("rounds to full recovery after burst", fmt.Sprintf("%d", r.RecoveryRounds))
	t.AddRow("fix-queue peak / cap", fmt.Sprintf("%d / %d", r.Final.QueuePeak, r.QueueCap))
	t.AddRow("rounds shed (admission control)", fmt.Sprintf("%d", r.Final.OverloadShed))
	t.AddRow("rounds demoted to coarse fix", fmt.Sprintf("%d", r.Final.OverloadDegraded))
	t.AddRow("serve-mode transitions", fmt.Sprintf("%d", r.Final.ModeChanges))
	t.AddRow("laggy marks / readmits", fmt.Sprintf("%d / %d",
		r.Final.LaggyMarks, r.Final.LaggyReadmits))
	t.AddRow("early round completions", fmt.Sprintf("%d", r.Final.EarlyCompletions))
	t.AddRow("budget-exceeded fixes dropped", fmt.Sprintf("%d", r.Final.BudgetExceeded))
	return t
}
