package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"bloc/internal/core"
	"bloc/internal/geom"
	"bloc/internal/locserver"
)

// drainTimeout bounds the wait for outstanding fixes after a phase: the
// server's 2 s round deadline plus headroom. A round still without a fix
// then is a failure.
const drainTimeout = 3 * time.Second

// segmentRounds is the fewest rounds an open-loop segment holds: each
// segment's p95 leaves 25 samples beyond it.
const segmentRounds = 500

// windowRounds is the fewest rounds the whole open-loop window holds, so
// its p99 leaves at least ten samples beyond it.
const windowRounds = 1000

// openSegments is how many segments the open-loop window is cut into.
func (cfg *config) openSegments() int {
	return max(1, int(cfg.w.rate*cfg.open.Seconds())/segmentRounds)
}

// closedSegments cuts the closed loop into one-second segments.
func (cfg *config) closedSegments() int {
	return max(1, int(cfg.closed.Seconds()))
}

// pass is one server driven through the open-loop phase (and, for the
// end-to-end run, the closed-loop phase).
type pass struct {
	d      *loadgen
	win    window // open-loop measured window
	closed window // closed-loop phase; zero when not run
	sum    summary
	rss    int64     // binary: peak RSS, bytes
	setup  []float64 // binary: seconds from exec to warm, per launch

	cpuSrv, cpuGen []time.Duration // binary: CPU at every segment edge
	steal          []time.Duration // binary: machine CPU steal at every segment edge
	mem            [2]runtime.MemStats
	srv            [2]locserver.Stats // in-process: window start, after drain
	eng            [2]core.Stats
}

// events are the server-side outcomes the workload checks need.
type events struct {
	modeChanges, pruned, partial, rejected, fingerprint int
	rejectedVia                                         string // how rejections were observed
}

// launch execs bloc-server and brings it to the measured state: listening,
// four hellos accepted, warm-up fixes delivered. The returned duration is
// the setup time.
func launch(bin string, args []string, d *loadgen) (*serverProc, time.Duration, error) {
	t0 := time.Now()
	p, err := startServer(bin, args)
	if err != nil {
		return nil, 0, err
	}
	addr, err := p.awaitListening(30 * time.Second)
	if err == nil {
		p.sink.Store(d)
		err = d.connect(addr)
		if err == nil {
			if err = d.warmUp(); err != nil {
				d.close()
			}
		}
	}
	if err != nil {
		p.kill()
		return nil, 0, fmt.Errorf("%w\n%s", err, p.logTail())
	}
	return p, time.Since(t0), nil
}

// binaryPass drives the bloc-server binary. It launches it `setups` times,
// timing each setup, and measures on the last launch.
func (cfg *config) binaryPass(setups int, closedPhase bool) (*pass, error) {
	args := cfg.w.opts.args(cfg.fpPath)
	ps := &pass{}
	var p *serverProc
	for k := 0; k < setups; k++ {
		d := newLoadgen(cfg.corpus, cfg.w, cfg.seed, cfg.maxRounds(closedPhase))
		pk, dur, err := launch(cfg.server, args, d)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", k, err)
		}
		ps.setup = append(ps.setup, dur.Seconds())
		if k < setups-1 {
			d.close()
			pk.kill()
			continue
		}
		p, ps.d = pk, d
	}
	d := ps.d
	live := true
	defer func() {
		if live {
			d.close()
			p.kill()
		}
	}()

	pid := p.cmd.Process.Pid
	segs := cfg.openSegments()
	ps.cpuSrv = make([]time.Duration, segs+1)
	ps.cpuGen = make([]time.Duration, segs+1)
	ps.steal = make([]time.Duration, segs+1)
	var cpuErr error
	win, err := d.openLoop(cfg.w.warm, cfg.open, segs, func(edge int) {
		var err error
		if ps.cpuSrv[edge], err = procCPU(pid); err != nil && cpuErr == nil {
			cpuErr = err
		}
		ps.cpuGen[edge] = selfCPU()
		ps.steal[edge] = machineSteal()
	})
	if err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	ps.win = win
	d.wait(d.issued.Load(), drainTimeout) // a round still without a fix is counted as failed
	if closedPhase {
		if ps.closed, err = d.closedLoop(cfg.closed, cfg.closedSegments()); err != nil {
			return nil, err
		}
		d.wait(d.issued.Load(), drainTimeout)
	}
	if ps.rss, err = procPeakRSS(pid); err != nil {
		return nil, err
	}
	live = false
	d.close()
	// Stopping drains the server's log, so every fix line is parsed before
	// the tiers are summarized.
	if err := p.stop(); err != nil {
		return nil, err
	}
	ps.sum = cfg.summarize(d, win, ps.closed)
	ev := events{
		modeChanges: int(p.modeChanges.Load()),
		pruned:      int(p.pruned.Load()),
		partial:     int(p.partial.Load()),
		rejected:    int(p.quarantines.Load()),
		rejectedVia: "quarantines in the server log (only rejected rows quarantine an anchor that never goes silent)",
		fingerprint: ps.sum.fingerprint,
	}
	fmt.Printf("binary: offered=%d failed=%d mode_changes=%d pruned=%d evicted=%d partial=%d quarantines=%d readmissions=%d reelections=%d dropped=%d\n",
		ps.sum.attempted, ps.sum.failed, ev.modeChanges, ev.pruned, p.evicted.Load(), ev.partial,
		p.quarantines.Load(), p.readmissions.Load(), p.reelections.Load(), p.dropped.Load())
	if err := cfg.check(ps, ev); err != nil {
		return nil, err
	}
	return ps, nil
}

// inprocPass drives an in-process locserver.Server through the open-loop
// phase; tr, when set, records spans.
func (cfg *config) inprocPass(tr *tracer) (*pass, error) {
	d := newLoadgen(cfg.corpus, cfg.w, cfg.seed, cfg.maxRounds(false))
	ip, err := startInproc(d, cfg.w.opts, cfg.fpPath, tr)
	if err != nil {
		return nil, err
	}
	defer ip.srv.Close()
	if err := d.connect(ip.srv.Addr()); err != nil {
		return nil, err
	}
	defer d.close()
	if err := d.warmUp(); err != nil {
		return nil, err
	}
	ps := &pass{d: d}
	segs := cfg.openSegments()
	ps.win, err = d.openLoop(cfg.w.warm, cfg.open, segs, func(edge int) {
		switch edge {
		case 0:
			ps.srv[0], ps.eng[0] = ip.srv.Stats(), ip.eng.Stats()
			runtime.ReadMemStats(&ps.mem[0])
		case segs:
			runtime.ReadMemStats(&ps.mem[1])
		}
	})
	if err != nil {
		return nil, err
	}
	d.wait(d.issued.Load(), drainTimeout)
	ps.srv[1], ps.eng[1] = ip.srv.Stats(), ip.eng.Stats()
	ps.sum = cfg.summarize(d, ps.win, window{})
	st := ps.srv[1]
	ev := events{
		modeChanges: st.ModeChanges,
		pruned:      st.Pruned,
		partial:     st.Partial,
		rejected:    st.RowsRejected,
		rejectedVia: "Stats.RowsRejected",
		fingerprint: ps.sum.fingerprint,
	}
	if err := cfg.check(ps, ev); err != nil {
		return nil, err
	}
	return ps, nil
}

// summary condenses one pass's slots.
type summary struct {
	attempted, failed int // every round offered after setup
	open              int // rounds offered in the measured window

	segLat      [][]float64 // per open segment: ms from scheduled send to first fix; a failure counts as drainTimeout
	segFixes    []int       // per open segment: fixes first received in it
	closedFixes []int       // per closed-loop segment: fixes first received in it
	late        []float64   // ms the generator sent after the schedule
	errs        []float64   // cm from the true position

	tiers         [5]int // measured window: fixes by tier code
	gated         int    // rounds after setup served at TierGatedCSI
	fingerprint   int    // rounds after setup served at TierFingerprint
	bytesPerRound float64

	delivered    int // fixes received, setup included
	nonFinite    int // delivered fixes with a NaN or infinite coordinate
	outside      int // finite delivered fixes outside the room
	worstOutside float64
	worstDesc    string
	short        int // delivered fixes some anchor client never received
}

func (cfg *config) summarize(d *loadgen, win, closed window) summary {
	s := summary{segLat: make([][]float64, win.segments), segFixes: make([]int, win.segments)}
	if closed.segments > 0 {
		s.closedFixes = make([]int, closed.segments)
	}
	room := cfg.corpus.dep.Env.Room
	batch := float64(cfg.corpus.bands * cfg.corpus.frameLen)
	n := int(d.issued.Load())
	for i := 0; i < n; i++ {
		sl := &d.slots[i]
		at := sl.fixAt.Load()
		if at != 0 {
			s.delivered++
			switch {
			case math.IsNaN(sl.x) || math.IsNaN(sl.y) || math.IsInf(sl.x, 0) || math.IsInf(sl.y, 0):
				s.nonFinite++
			case !inRoom(room, sl.x, sl.y):
				s.outside++
				if d := outsideBy(room, sl.x, sl.y); d > s.worstOutside {
					truth := cfg.corpus.rounds[sl.idx].truth
					s.worstOutside = d
					s.worstDesc = fmt.Sprintf("round %d of tag %d at (%.2f, %.2f), truly at (%.2f, %.2f)",
						i+1, sl.tag, sl.x, sl.y, truth.X, truth.Y)
				}
			}
			if sl.copies.Load() != numAnchors {
				s.short++
			}
			if k := win.segment(at); k >= 0 {
				s.segFixes[k]++
			}
			if k := closed.segment(at); k >= 0 && sl.phase == phaseClosed {
				s.closedFixes[k]++
			}
		}
		if sl.phase == phaseSetup {
			continue
		}
		s.attempted++
		if at == 0 {
			s.failed++
		}
		tier := sl.tier.Load()
		switch tier {
		case uint32(locserver.TierGatedCSI) + 1:
			s.gated++
		case uint32(locserver.TierFingerprint) + 1:
			s.fingerprint++
		}
		if sl.phase != phaseOpen {
			continue
		}
		s.open++
		s.late = append(s.late, float64(sl.sent-sl.due)/1e6)
		sent := float64(numAnchors)
		if sl.omitted {
			sent--
		}
		s.bytesPerRound += sent * batch
		k := win.segment(sl.due)
		if at == 0 {
			s.segLat[k] = append(s.segLat[k], float64(drainTimeout)/1e6)
			continue
		}
		s.segLat[k] = append(s.segLat[k], float64(at-sl.due)/1e6)
		truth := cfg.corpus.rounds[sl.idx].truth
		s.errs = append(s.errs, 100*truth.Dist(geom.Pt(sl.x, sl.y)))
		s.tiers[tier]++
	}
	s.bytesPerRound = ratio(s.bytesPerRound, float64(s.open))
	return s
}

// latency returns the median over segments of each segment's q-quantile
// latency (ms).
func (s *summary) latency(q float64) float64 {
	per := make([]float64, len(s.segLat))
	for k, lat := range s.segLat {
		per[k] = quantile(append([]float64(nil), lat...), q)
	}
	return median(per)
}

// windowLatency returns the q-quantile latency (ms) over the whole window.
func (s *summary) windowLatency(q float64) float64 {
	var all []float64
	for _, lat := range s.segLat {
		all = append(all, lat...)
	}
	return quantile(all, q)
}

// Generator validity: the open loop is honest only while the writer keeps
// its schedule. A p99 lateness beyond this means the run measured the
// generator, not the server.
const maxLateP99ms = 10

// maxOutsideShare bounds the fixes allowed outside the room. It is not 0
// because bloc-server's Kalman smoothing can overshoot the walls: after a
// gated-out fix its tag state keeps the last accepted fix's time, so the
// next update predicts over an interval the filter already advanced
// through. Tracked tags then see 5–11% of fixes outside the room.
const maxOutsideShare = 0.20

// check fails the run when its outputs are wrong or the workload did not
// exercise what it claims to.
func (cfg *config) check(ps *pass, ev events) error {
	s := ps.sum
	var bad []string
	fail := func(f string, a ...any) { bad = append(bad, fmt.Sprintf(f, a...)) }
	if err := ps.d.err(); err != nil {
		fail("anchor clients: %v", err)
	}
	if s.nonFinite > 0 {
		fail("%d fixes are not finite", s.nonFinite)
	}
	if s.outside > 0 {
		share := ratio(float64(s.outside), float64(s.delivered))
		fmt.Printf("warning: %d of %d fixes (%.2f%%) lie outside the room, worst %.2f m: %s\n",
			s.outside, s.delivered, 100*share, s.worstOutside, s.worstDesc)
		if share > maxOutsideShare {
			fail("%.2f%% of fixes lie outside the room (bound %.0f%%)", 100*share, 100*maxOutsideShare)
		}
	}
	if s.short > 0 {
		fail("%d fixes did not reach every anchor client", s.short)
	}
	if ev.modeChanges > 0 {
		fail("the server left normal serve mode (%d mode changes)", ev.modeChanges)
	}
	if ev.pruned > 0 {
		fail("the server pruned %d anchor connections", ev.pruned)
	}
	for k, lat := range s.segLat {
		if len(lat) < segmentRounds {
			fail("segment %d holds %d rounds, fewer than %d", k, len(lat), segmentRounds)
		}
	}
	if s.open < windowRounds {
		fail("the window holds %d rounds; its p99 needs %d to leave 10 samples beyond it", s.open, windowRounds)
	}
	if late := quantile(append([]float64(nil), s.late...), 0.99); late > maxLateP99ms {
		fail("generator fell behind its schedule: p99 lateness %.2f ms > %d ms", late, maxLateP99ms)
	}
	delivered := 0
	for _, n := range s.tiers {
		delivered += n
	}
	errP50 := median(append([]float64(nil), s.errs...))
	switch cfg.w.name {
	case "tracked":
		if g := ratio(float64(s.tiers[locserver.TierGatedCSI+1]), float64(delivered)); g < 0.8 {
			fail("tracked: only %.1f%% of measured fixes served at gated-csi", 100*g)
		}
	case "cold":
		if s.gated > 0 {
			fail("cold: %d fixes served at gated-csi", s.gated)
		}
		// Fig. 9a: 72 cm median over the paper room.
		if errP50 < 50 || errP50 > 100 {
			fail("cold: median error %.1f cm outside the Fig. 9a range [50, 100] cm", errP50)
		}
	case "faulty":
		if ev.rejected == 0 {
			fail("faulty: no rejected rows (%s)", ev.rejectedVia)
		}
		if ev.partial == 0 {
			fail("faulty: no partial rounds")
		}
		if ev.fingerprint == 0 {
			fail("faulty: no fingerprint-tier rounds")
		}
	}
	if errP50 > 150 {
		fail("median error %.1f cm: fixes are not tracking the tags", errP50)
	}
	if len(bad) > 0 {
		return fmt.Errorf("workload %s failed its checks:\n  %s", cfg.w.name, strings.Join(bad, "\n  "))
	}
	return nil
}

// setupLaunches is how many times the end-to-end run launches the server
// to time its setup; the last launch is the one measured.
const setupLaunches = 9

// runBinary is the end-to-end run: setupLaunches timed setups, the
// open-loop window, the closed-loop capacity phase, on the bloc-server
// binary. Timings are medians over segments.
func runBinary(cfg *config) (int, int, error) {
	ps, err := cfg.binaryPass(setupLaunches, true)
	if err != nil {
		return 0, 0, err
	}
	s := ps.sum
	cpuPerFix := make([]float64, len(s.segFixes))
	for k, n := range s.segFixes {
		cpuPerFix[k] = ratio((ps.cpuSrv[k+1]-ps.cpuSrv[k]).Seconds()*1e3, float64(n))
	}
	segLen := time.Duration(ps.closed.end-ps.closed.start) / time.Duration(ps.closed.segments)
	capacity := make([]float64, len(s.closedFixes))
	for k, n := range s.closedFixes {
		capacity[k] = float64(n) / segLen.Seconds()
	}
	errs := append([]float64(nil), s.errs...)
	var segs strings.Builder
	for k, lat := range s.segLat {
		fmt.Fprintf(&segs, " [p50 %.2f p99 %.2f ms, %.2f ms CPU/fix, steal %v]",
			quantile(append([]float64(nil), lat...), 0.5), quantile(append([]float64(nil), lat...), 0.99),
			cpuPerFix[k], ps.steal[k+1]-ps.steal[k])
	}
	fmt.Printf("segments:%s\n", segs.String())
	fmt.Printf("end-to-end metrics (workload %s, %d measured open-loop rounds in %d segments, %d offered in all):\n",
		cfg.w.name, s.open, len(s.segLat), s.attempted)
	cfg.report("fix_p50_ms", s.latency(0.5), "ms", "median of segment medians")
	cfg.report("fix_p95_ms", s.latency(0.95), "ms", "median of segment p95s")
	fmt.Printf("  %-34s %14.4f %-8s  (whole window, %d samples beyond; not bounded: it follows hypervisor steal)\n",
		"fix_p99_ms", s.windowLatency(0.99), "ms", s.open/100)
	fmt.Printf("  %-34s %14.4f %-8s  (%d of %d rounds; carried as failed/attempted)\n", "fail_ratio",
		ratio(float64(s.failed), float64(s.attempted)), "ratio", s.failed, s.attempted)
	cfg.report("capacity_fixes_per_s", median(capacity), "fixes/s",
		fmt.Sprintf("closed loop at %d in flight, median of %d %v segments", closedInflight, len(capacity), segLen))
	cfg.report("server_cpu_ms_per_fix", median(cpuPerFix), "ms", "median over segments")
	cfg.report("err_p50_cm", median(errs), "cm", fmt.Sprintf("n=%d", len(errs)))
	cfg.report("err_p90_cm", quantile(errs, 0.9), "cm", "")
	cfg.report("server_rss_mb", float64(ps.rss)/(1<<20), "MB", "peak")
	cfg.report("setup_s", median(ps.setup), "s", fmt.Sprintf("median of %d launches: %s", len(ps.setup), secs(ps.setup)))
	return s.attempted, s.failed, nil
}

func secs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
