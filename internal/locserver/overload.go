package locserver

import (
	"time"

	"bloc/internal/csi"
	"bloc/internal/wire"
)

// Overload-resilient serving plane (DESIGN.md §12). Fix computation is
// moved off the ingest path into a bounded work queue drained by a small
// worker pool, so a burst of completed rounds can never block row ingest
// or grow memory without bound. The queue is fair per tag: jobs are
// stored in per-tag FIFOs and drained round-robin, with at most one fix
// in flight per tag so a hot tag can neither starve the fleet nor have
// its fixes reordered.
//
// Queue depth drives a hysteretic three-state serve mode:
//
//	normal ──depth ≥ degradeHigh──▶ degraded ──depth ≥ shedHigh──▶ shedding
//	normal ◀──depth ≤ degradeLow── degraded ◀──depth ≤ shedLow─── shedding
//
// In degraded mode completed rounds are routed to the coarse RSSI fix
// (meters of error instead of a grid search's milliseconds of CPU — the
// §10 degraded mode reused as a load valve). In shedding mode rounds for
// untracked tags — tags without a recent fix history — are dropped
// outright, and when the queue is full a queued untracked job is evicted
// before a tracked tag's round is ever refused. Every decision is
// counted in Stats.
//
// Each job carries the round's first-row timestamp; a configured
// FixBudget bounds first row → fix → broadcast, and a job that exhausts
// it is dropped before localization (and re-checked before broadcast) —
// a stale fix poisons the tracker, so late is treated as lost.

// serveMode is the admission-control state.
type serveMode int

const (
	modeNormal serveMode = iota
	modeDegraded
	modeShedding
)

func (m serveMode) String() string {
	switch m {
	case modeNormal:
		return "normal"
	case modeDegraded:
		return "degraded"
	case modeShedding:
		return "shedding"
	default:
		return "unknown"
	}
}

// trackedMinFixes is how many delivered fixes a tag needs before it
// counts as tracked (shed last): a tag seen once during a burst has no
// history worth protecting.
const trackedMinFixes = 3

// maxTagHistory bounds the per-tag fix-history map; like the done-round
// tombstones it is cleared wholesale at the cap (tags then re-earn
// tracked status, which is harmless).
const maxTagHistory = 8192

// OverloadConfig tunes admission control. The serve-mode watermarks
// are not configurable: they follow the fix queue's capacity
// (overloadParams).
type OverloadConfig struct {
	// TrackedTTL is how recently a tag must have received a fix for its
	// history to keep it tracked (default 30s).
	TrackedTTL time.Duration
}

// overloadParams is admission control resolved against the queue
// capacity. Degraded mode is entered when the queue depth reaches
// degradeHigh (cap/2) and left at or below degradeLow (cap/4); shedding
// is entered at shedHigh (3·cap/4) and dropped back to degraded at or
// below shedLow (3·cap/8). Each gap is a hysteresis band.
type overloadParams struct {
	degradeHigh, degradeLow int
	shedHigh, shedLow       int
	trackedTTL              time.Duration
}

// minFixQueueDepth is the smallest queue capacity whose watermarks keep
// both hysteresis bands open: below it degradeLow is 0.
const minFixQueueDepth = 4

func (c OverloadConfig) params(queueCap int) overloadParams {
	p := overloadParams{
		degradeHigh: queueCap / 2,
		degradeLow:  queueCap / 4,
		shedHigh:    queueCap * 3 / 4,
		shedLow:     queueCap * 3 / 8,
		trackedTTL:  c.TrackedTTL,
	}
	if p.trackedTTL <= 0 {
		p.trackedTTL = 30 * time.Second
	}
	return p
}

// fixJob is one completed round waiting for localization.
type fixJob struct {
	rk    roundKey
	snap  *csi.Snapshot
	info  RoundInfo
	start time.Time // the round's first-row arrival; FixBudget reference
}

// fixQueue is the bounded per-tag-fair work queue. Not safe for
// concurrent use: the server serializes every method under Server.mu.
type fixQueue struct {
	perTag map[uint16][]*fixJob // FIFO per tag; guarded by Server.mu
	ring   []uint16             // round-robin order of tags with queued jobs; guarded by Server.mu
	next   int                  // ring cursor; guarded by Server.mu
	size   int                  // total queued jobs; guarded by Server.mu
	cap    int
}

func newFixQueue(capacity int) *fixQueue {
	return &fixQueue{perTag: make(map[uint16][]*fixJob), cap: capacity}
}

// pushLocked appends a job to its tag's FIFO. The caller has already
// checked capacity. Caller holds Server.mu.
func (q *fixQueue) pushLocked(j *fixJob) {
	tag := j.info.Tag
	if _, ok := q.perTag[tag]; !ok {
		q.ring = append(q.ring, tag)
	}
	q.perTag[tag] = append(q.perTag[tag], j)
	q.size++
}

// popLocked returns the next job in round-robin tag order, skipping tags
// with a fix already in flight; nil when nothing is poppable. Caller
// holds Server.mu.
func (q *fixQueue) popLocked(busy map[uint16]bool) *fixJob {
	for scanned := 0; scanned < len(q.ring); scanned++ {
		idx := (q.next + scanned) % len(q.ring)
		tag := q.ring[idx]
		if busy[tag] {
			continue
		}
		jobs := q.perTag[tag]
		j := jobs[0]
		if len(jobs) == 1 {
			delete(q.perTag, tag)
			q.removeRingLocked(idx)
		} else {
			q.perTag[tag] = jobs[1:]
			q.next = (idx + 1) % len(q.ring)
		}
		q.size--
		return j
	}
	return nil
}

// evictUntrackedLocked drops the newest queued job of some untracked tag
// to make room for a tracked one, returning it (nil when every queued
// tag is tracked). Caller holds Server.mu.
func (q *fixQueue) evictUntrackedLocked(tracked func(uint16) bool) *fixJob {
	for idx := len(q.ring) - 1; idx >= 0; idx-- {
		tag := q.ring[idx]
		if tracked(tag) {
			continue
		}
		jobs := q.perTag[tag]
		j := jobs[len(jobs)-1]
		if len(jobs) == 1 {
			delete(q.perTag, tag)
			q.removeRingLocked(idx)
		} else {
			q.perTag[tag] = jobs[:len(jobs)-1]
		}
		q.size--
		return j
	}
	return nil
}

// removeRingLocked deletes ring[idx] preserving round-robin order and
// keeping the cursor on the element after the removed one. Caller holds
// Server.mu.
func (q *fixQueue) removeRingLocked(idx int) {
	q.ring = append(q.ring[:idx], q.ring[idx+1:]...)
	if len(q.ring) == 0 {
		q.next = 0
		return
	}
	if idx < q.next {
		q.next--
	}
	q.next %= len(q.ring)
}

// tagHistory is one tag's fix history, for shed-priority decisions.
type tagHistory struct {
	fixes int       // delivered fixes; guarded by Server.mu
	last  time.Time // most recent delivery; guarded by Server.mu
}

// trackedLocked reports whether a tag has enough recent fix history to
// be shed last. Caller holds Server.mu.
func (s *Server) trackedLocked(tag uint16) bool {
	h, ok := s.tagHist[tag]
	return ok && h.fixes >= trackedMinFixes && s.now().Sub(h.last) <= s.ovl.trackedTTL
}

// noteFixLocked records one delivered fix in the tag's history. Caller
// holds Server.mu.
func (s *Server) noteFixLocked(tag uint16) {
	if len(s.tagHist) >= maxTagHistory {
		s.tagHist = make(map[uint16]tagHistory)
	}
	h := s.tagHist[tag]
	h.fixes++
	h.last = s.now()
	s.tagHist[tag] = h
}

// updateModeLocked walks the hysteretic mode machine against the current
// queue depth. Caller holds Server.mu.
func (s *Server) updateModeLocked() {
	depth := s.fq.size
	from := s.mode
	switch s.mode {
	case modeNormal:
		if depth >= s.ovl.shedHigh {
			s.mode = modeShedding
		} else if depth >= s.ovl.degradeHigh {
			s.mode = modeDegraded
		}
	case modeDegraded:
		if depth >= s.ovl.shedHigh {
			s.mode = modeShedding
		} else if depth <= s.ovl.degradeLow {
			s.mode = modeNormal
		}
	case modeShedding:
		if depth <= s.ovl.degradeLow {
			s.mode = modeNormal
		} else if depth <= s.ovl.shedLow {
			s.mode = modeDegraded
		}
	}
	if s.mode != from {
		s.stats.ModeChanges++
		s.log.Warn("serve mode changed", "from", from.String(), "to", s.mode.String(),
			"queue", depth)
	}
}

// enqueueFixLocked admits one finalized round into the fix pipeline,
// applying the mode's shedding and degradation policies. Caller holds
// Server.mu.
func (s *Server) enqueueFixLocked(job *fixJob) {
	tracked := s.trackedLocked(job.info.Tag)
	job.info.Tracked = tracked
	if s.mode == modeShedding && !tracked {
		s.stats.OverloadShed++
		s.log.Debug("round shed (untracked tag in shedding mode)",
			"tag", job.info.Tag, "round", job.info.Round, "queue", s.fq.size)
		return
	}
	if s.fq.size >= s.fq.cap {
		// Full queue: evict a queued untracked job before refusing a
		// tracked tag's round; an untracked round at a full queue is
		// simply dropped.
		if evicted := s.fq.evictUntrackedLocked(s.trackedLocked); evicted != nil && tracked {
			s.stats.OverloadShed++
			s.log.Debug("queued round evicted for a tracked tag",
				"evicted_tag", evicted.info.Tag, "for_tag", job.info.Tag)
		} else {
			if evicted != nil {
				// Re-queue the victim: the incoming job is no better.
				s.fq.pushLocked(evicted)
			}
			s.stats.OverloadShed++
			s.log.Debug("round shed (queue full)", "tag", job.info.Tag, "round", job.info.Round)
			return
		}
	}
	if s.mode != modeNormal && !job.info.Coarse {
		// Degraded (and shedding) mode routes admitted rounds to the
		// coarse RSSI fix: orders of magnitude cheaper per fix, which is
		// what lets the queue drain faster than it fills.
		job.info.Coarse = true
		job.info.Degraded = true
		s.stats.OverloadDegraded++
	}
	// Every demotion route — quorum-unmet coarse completion, overload
	// demotion just above, and the hysteretic holdback itself — funnels
	// through the ladder here, after the shed decisions: only admitted
	// rounds move a tag's tier state.
	s.applyLadderLocked(job)
	s.fq.pushLocked(job)
	if s.fq.size > s.stats.QueuePeak {
		s.stats.QueuePeak = s.fq.size
	}
	s.updateModeLocked()
	s.fixCond.Signal()
}

// fixWorker drains the fix queue until the server closes.
func (s *Server) fixWorker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if s.closing {
			s.mu.Unlock()
			return
		}
		job := s.fq.popLocked(s.busyTags)
		if job == nil {
			s.fixCond.Wait()
			continue
		}
		s.busyTags[job.info.Tag] = true
		s.fixInflight++
		s.updateModeLocked()
		s.mu.Unlock()

		s.runFixRecover(job)

		s.mu.Lock()
		delete(s.busyTags, job.info.Tag)
		s.fixInflight--
		// The tag just freed may have queued jobs a waiting worker
		// skipped; wake one to re-scan.
		s.fixCond.Signal()
	}
}

// runFixRecover guards one fix computation with the cell hook and panic
// recovery: a panic from the hook (a scheduled cell kill) or from the
// localization callback is recovered and reported to the supervisor,
// and the worker loop — which holds no lock here — survives to clean up
// its busy-tag entry and keep draining. The round whose fix panicked is
// lost (at-most-once), which is the crash-only contract: the supervisor
// restarts the cell from its last checkpoint rather than trusting state
// a panic tore through.
func (s *Server) runFixRecover(job *fixJob) {
	defer s.recoverPanic("fix")
	if h := s.cfg.Hook; h != nil {
		h(HookFix)
	}
	s.runFix(job)
}

// budgetExceeded checks a job's elapsed time against the fix budget. The
// clock hook is set once at construction, so no lock is needed.
func (s *Server) budgetExceeded(job *fixJob) bool {
	return s.cfg.FixBudget > 0 && s.now().Sub(job.start) > s.cfg.FixBudget
}

// runFix localizes one dequeued round and broadcasts the fix, enforcing
// the latency budget on both sides of the (potentially slow)
// localization callback. Runs on a fix worker, never on the ingest path.
func (s *Server) runFix(job *fixJob) {
	if s.budgetExceeded(job) {
		s.mu.Lock()
		s.stats.BudgetExceeded++
		s.mu.Unlock()
		s.log.Warn("fix dropped before localization (budget exhausted)",
			"tag", job.rk.tag, "round", job.rk.round,
			"elapsed", s.now().Sub(job.start), "budget", s.cfg.FixBudget)
		return
	}
	loc, err := s.cfg.OnSnapshot(job.info, job.snap)
	if err != nil {
		s.log.Error("localization failed", "tag", job.rk.tag, "round", job.rk.round, "err", err)
		return
	}
	if s.budgetExceeded(job) {
		// Computed but too late to be true anymore: a stale fix fed to a
		// tracker is worse than a missed round.
		s.mu.Lock()
		s.stats.BudgetExceeded++
		s.mu.Unlock()
		s.log.Warn("fix dropped before broadcast (budget exhausted)",
			"tag", job.rk.tag, "round", job.rk.round,
			"elapsed", s.now().Sub(job.start), "budget", s.cfg.FixBudget)
		return
	}
	s.mu.Lock()
	s.noteFixLocked(job.rk.tag)
	s.mu.Unlock()
	fix := wire.Fix{Round: job.rk.round, TagID: job.rk.tag, X: loc.X, Y: loc.Y}
	select {
	case s.fixes <- fix:
	default: // observer not draining; drop rather than block the worker
	}
	s.broadcast(&fix)
	if s.cfg.OnFix != nil {
		s.cfg.OnFix(job.info, fix)
	}
	s.log.Info("fix", "tag", job.rk.tag, "round", job.rk.round, "x", loc.X, "y", loc.Y,
		"tier", job.info.Tier.String(), "coarse", job.info.Coarse, "degraded", job.info.Degraded)
}
