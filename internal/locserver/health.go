package locserver

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"bloc/internal/csi"
	"bloc/internal/durable"
)

// Anchor health, quarantine and reference election (the failover half of
// the data-quality plane). Every ingested row's validation verdict feeds a
// per-anchor EWMA health score; at each round boundary the tracker folds
// the round's verdicts into the scores, walks the quarantine state
// machine, and decides whether the α-correction reference (Eq. 10's
// anchor 0, relaxed to any index by core.CorrectRef) must be re-elected.
//
// The state machine is hysteretic so a flaky anchor cannot flap:
//
//	healthy ──score < enterScore──▶ quarantined
//	quarantined ──jittered cooldown elapsed──▶ probation
//	probation ──probationRounds clean AND score ≥ exitScore──▶ healthy
//	probation ──any rejected row──▶ quarantined (fresh cooldown draw)
//
// enterScore < exitScore is the hysteresis band: an anchor hovering
// between the two thresholds stays wherever it already is. Cooldowns are
// drawn from a seeded PCG stream (deterministic per server) with jitter,
// so a fleet of quarantined anchors does not re-probe in lockstep.
//
// Re-election is also damped: the reference only changes when the current
// one is quarantined or stopped contributing usable rows, never merely
// because another anchor's score inched ahead, and soft re-elections are
// rate-limited by a jittered cooldown of their own.

// HealthConfig seeds quarantine and reference election and sets the
// straggler plane's latency smoothing. The zero value selects the
// defaults noted per field; the state machine's thresholds are the
// fixed defaultHealth.
type HealthConfig struct {
	// Seed derives the jitter stream (default 1); same seed, same
	// traffic, same cooldown draws.
	Seed uint64
	// LatAlpha smooths the per-anchor arrival-latency EWMA of the
	// straggler half of the plane (default 0.3).
	LatAlpha float64
}

// healthParams holds the thresholds of the quarantine and laggy state
// machines. Every tracker starts from defaultHealth; only in-package
// tests change their tracker's copy.
type healthParams struct {
	// ewmaAlpha is the per-round smoothing factor of the health score
	// (0.25: four bad rounds take a pristine anchor below the
	// quarantine threshold).
	ewmaAlpha float64
	// enterScore quarantines a healthy anchor whose score falls below
	// it; exitScore is the score a probationary anchor must regain
	// before readmission. The gap is the hysteresis band.
	enterScore, exitScore float64
	// cooldownRounds is the minimum rounds an anchor stays quarantined;
	// each quarantine adds a jitter of 0..cooldownJitter rounds drawn
	// from the seeded stream.
	cooldownRounds, cooldownJitter int
	// probationRounds is how many consecutive fully-clean rounds a
	// probationary anchor must deliver to graduate.
	probationRounds int
	// reelectCooldown damps soft re-elections: after any election the
	// reference holds for at least this many rounds plus
	// 0..cooldownJitter jitter. Forced elections (reference quarantined
	// or silent) ignore it — localization cannot wait out a dead
	// reference.
	reelectCooldown int

	// The straggler half of the plane (DESIGN.md §12): per-anchor
	// arrival-latency EWMAs mark slow-but-alive anchors "laggy" with the
	// same hysteresis quarantine uses for corrupt ones, and feed the
	// adaptive round deadline.

	// laggyEnter marks an anchor laggy when its p95 arrival latency has
	// exceeded this multiple of the fleet median p95 for laggyRounds
	// consecutive rounds; laggyExit readmits a laggy anchor whose p95
	// has stayed below this multiple for laggyRounds consecutive rounds.
	// The gap is the hysteresis band.
	laggyEnter, laggyExit float64
	// laggyRounds is the consecutive-round hysteresis on both edges of
	// the laggy transition: one slow round never exiles an anchor, one
	// fast round never readmits it.
	laggyRounds int
	// laggyFloor is an absolute p95 floor on both edges: an anchor is
	// never marked laggy while its p95 sits below it, and a laggy anchor
	// whose p95 drops below it always counts as punctual. On a fast
	// fleet the relative thresholds alone would flap on scheduler noise
	// — 3× a 0.2ms median is still noise.
	laggyFloor time.Duration
	// deadlineHeadroom multiplies the slowest non-laggy anchor's p95
	// latency when adapting the round deadline.
	deadlineHeadroom float64
}

// defaultHealth is the state machine every server runs.
var defaultHealth = healthParams{
	ewmaAlpha:        0.25,
	enterScore:       0.35,
	exitScore:        0.75,
	cooldownRounds:   6,
	cooldownJitter:   3,
	probationRounds:  3,
	reelectCooldown:  4,
	laggyEnter:       3,
	laggyExit:        1.5,
	laggyRounds:      3,
	laggyFloor:       10 * time.Millisecond,
	deadlineHeadroom: 2,
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LatAlpha <= 0 || c.LatAlpha > 1 {
		c.LatAlpha = 0.3
	}
	return c
}

// anchorState is the quarantine state machine.
type anchorState uint8

const (
	anchorHealthy anchorState = iota
	anchorQuarantined
	anchorProbation
)

func (s anchorState) String() string {
	switch s {
	case anchorHealthy:
		return "healthy"
	case anchorQuarantined:
		return "quarantined"
	case anchorProbation:
		return "probation"
	default:
		return "unknown"
	}
}

// anchorHealth is one anchor's rolling health. All fields are guarded by
// Server.mu (the tracker has no lock of its own; the server serializes).
type anchorHealth struct {
	score       float64     // EWMA of per-round verdict ratios; guarded by Server.mu
	state       anchorState // guarded by Server.mu
	cooldown    int         // rounds left in quarantine; guarded by Server.mu
	cleanRounds int         // consecutive clean probation rounds; guarded by Server.mu
	roundOK     int         // accepted rows since the last boundary; guarded by Server.mu
	roundBad    int         // rejected rows since the last boundary; guarded by Server.mu

	// Straggler tracking (DESIGN.md §12). Latencies are seconds from a
	// round's first row to this anchor's first row; deliberately not
	// persisted — a restarted server re-learns the live network instead
	// of trusting stale timing.
	lat      float64 // arrival-latency EWMA (s); guarded by Server.mu
	latDev   float64 // EWMA of absolute latency deviation (s); guarded by Server.mu
	latSeen  bool    // any latency observed yet; guarded by Server.mu
	laggy    bool    // excluded from quorum waits; guarded by Server.mu
	lagOver  int     // consecutive rounds over the enter threshold; guarded by Server.mu
	lagUnder int     // consecutive rounds under the exit threshold; guarded by Server.mu
}

// p95 approximates the anchor's 95th-percentile arrival latency from the
// EWMA pair (mean + 2·deviation, the usual light-tail bound).
func (a *anchorHealth) p95Locked() float64 { return a.lat + 2*a.latDev }

// healthTransition records one state change for logging and stats.
type healthTransition struct {
	Anchor int
	From   anchorState
	To     anchorState
	Score  float64
}

// lagTransition records one laggy-edge for logging and stats.
type lagTransition struct {
	Anchor int
	Laggy  bool
	P95    float64 // seconds
}

// healthTracker owns the per-anchor scores and the elected reference.
// Not safe for concurrent use: every method is called with Server.mu held.
type healthTracker struct {
	cfg HealthConfig
	p   healthParams // defaultHealth; in-package tests may change it
	rng *rand.Rand   // jitter stream; guarded by Server.mu

	anchors []anchorHealth // guarded by Server.mu
	ref     int            // elected reference index; guarded by Server.mu
	holdoff int            // rounds before the next soft re-election; guarded by Server.mu

	reelections  int // guarded by Server.mu
	quarantines  int // guarded by Server.mu
	readmissions int // guarded by Server.mu
	lagMarks     int // transitions into laggy; guarded by Server.mu
	lagReadmits  int // laggy → punctual readmissions; guarded by Server.mu
}

func newHealthTracker(anchors int, cfg HealthConfig) *healthTracker {
	c := cfg.withDefaults()
	state := make([]anchorHealth, anchors)
	for i := range state {
		state[i] = anchorHealth{score: 1}
	}
	return &healthTracker{
		cfg:     c,
		p:       defaultHealth,
		rng:     rand.New(rand.NewPCG(c.Seed, 0xB10C)),
		anchors: state,
	}
}

// observeLocked records one row verdict for an anchor. Caller holds Server.mu.
func (h *healthTracker) observeLocked(anchor int, verdict csi.RowVerdict) {
	if anchor < 0 || anchor >= len(h.anchors) {
		return
	}
	if verdict.OK() {
		h.anchors[anchor].roundOK++
	} else {
		h.anchors[anchor].roundBad++
	}
}

// referenceLocked returns the current elected reference. Caller holds
// Server.mu.
func (h *healthTracker) referenceLocked() int { return h.ref }

// quarantinedSetLocked snapshots which anchors are quarantined right now,
// for a pendingRound to capture at creation. Caller holds Server.mu.
func (h *healthTracker) quarantinedSetLocked() []bool {
	q := make([]bool, len(h.anchors))
	for i := range h.anchors {
		q[i] = h.anchors[i].state == anchorQuarantined
	}
	return q
}

// observeLatencyLocked records one arrival latency: the gap between a
// round's first row (any anchor) and this anchor's first row of the same
// round. Caller holds Server.mu.
func (h *healthTracker) observeLatencyLocked(anchor int, d time.Duration) {
	if anchor < 0 || anchor >= len(h.anchors) || d < 0 {
		return
	}
	st := &h.anchors[anchor]
	x := d.Seconds()
	if !st.latSeen {
		st.lat, st.latDev, st.latSeen = x, 0, true
		return
	}
	a := h.cfg.LatAlpha
	dev := x - st.lat
	if dev < 0 {
		dev = -dev
	}
	st.lat = (1-a)*st.lat + a*x
	st.latDev = (1-a)*st.latDev + a*dev
}

// laggySetLocked snapshots which anchors are currently laggy, for a
// pendingRound to capture at creation (the straggler analogue of
// quarantinedSetLocked). Caller holds Server.mu.
func (h *healthTracker) laggySetLocked() []bool {
	l := make([]bool, len(h.anchors))
	for i := range h.anchors {
		l[i] = h.anchors[i].laggy
	}
	return l
}

// laggyCountLocked returns how many anchors are currently laggy. Caller
// holds Server.mu.
func (h *healthTracker) laggyCountLocked() int {
	n := 0
	for i := range h.anchors {
		if h.anchors[i].laggy {
			n++
		}
	}
	return n
}

// medianP95Locked is the fleet's punctuality baseline: the median p95
// arrival latency over non-laggy anchors with any history (falling back
// to every observed anchor when all are laggy). Even counts take the
// LOWER median deliberately: with half the fleet slow (two of four
// anchors behind a congested switch), the upper median would be a slow
// anchor's own p95 and no one would ever look laggy relative to it.
// Anchoring the baseline to the punctual half keeps the detector live up
// to (but excluding) a slow majority. Caller holds Server.mu.
func (h *healthTracker) medianP95Locked() (float64, bool) {
	p := make([]float64, 0, len(h.anchors))
	for i := range h.anchors {
		if h.anchors[i].latSeen && !h.anchors[i].laggy {
			p = append(p, h.anchors[i].p95Locked())
		}
	}
	if len(p) == 0 {
		for i := range h.anchors {
			if h.anchors[i].latSeen {
				p = append(p, h.anchors[i].p95Locked())
			}
		}
	}
	if len(p) == 0 {
		return 0, false
	}
	sort.Float64s(p)
	return p[(len(p)-1)/2], true
}

// adaptiveDeadlineLocked derives the next round's deadline from the live
// latency plane: DeadlineHeadroom times the slowest non-laggy anchor's
// p95 arrival latency, clamped to [max/10, max] so a burst of fast rounds
// never collapses the deadline to zero and a slow fleet never exceeds the
// configured ceiling. Caller holds Server.mu.
func (h *healthTracker) adaptiveDeadlineLocked(max time.Duration) time.Duration {
	worst, seen := 0.0, false
	for i := range h.anchors {
		if h.anchors[i].latSeen && !h.anchors[i].laggy {
			seen = true
			if p := h.anchors[i].p95Locked(); p > worst {
				worst = p
			}
		}
	}
	if !seen {
		return max
	}
	d := time.Duration(h.p.deadlineHeadroom * worst * float64(time.Second))
	if floor := max / 10; d < floor {
		d = floor
	}
	if d > max {
		d = max
	}
	return d
}

// endLatencyRoundLocked advances the laggy state machine one round:
// anchors whose p95 arrival latency has stayed beyond LaggyEnter times
// the fleet median for laggyRounds consecutive rounds are marked laggy
// (and excluded from quorum waits by the server); laggy anchors that
// stayed under LaggyExit times the median for as long are readmitted. At
// most len(anchors)-2 anchors may be laggy: the estimator's two-anchor
// floor must keep someone to wait for. Caller holds Server.mu.
func (h *healthTracker) endLatencyRoundLocked() []lagTransition {
	med, ok := h.medianP95Locked()
	if !ok || med <= 0 {
		return nil
	}
	nonLaggy := len(h.anchors) - h.laggyCountLocked()
	// Both edges respect the absolute floor: relative thresholds against
	// a sub-millisecond fleet median would otherwise mark (and trap)
	// anchors over scheduler noise.
	floor := h.p.laggyFloor.Seconds()
	enterThr := h.p.laggyEnter * med
	if enterThr < floor {
		enterThr = floor
	}
	exitThr := h.p.laggyExit * med
	if exitThr < floor {
		exitThr = floor
	}
	var out []lagTransition
	for i := range h.anchors {
		st := &h.anchors[i]
		if !st.latSeen {
			continue
		}
		p := st.p95Locked()
		if !st.laggy {
			if p > enterThr {
				st.lagOver++
			} else {
				st.lagOver = 0
			}
			if st.lagOver >= h.p.laggyRounds && nonLaggy > 2 {
				st.laggy, st.lagOver, st.lagUnder = true, 0, 0
				nonLaggy--
				h.lagMarks++
				out = append(out, lagTransition{Anchor: i, Laggy: true, P95: p})
			}
		} else {
			if p < exitThr {
				st.lagUnder++
			} else {
				st.lagUnder = 0
			}
			if st.lagUnder >= h.p.laggyRounds {
				st.laggy, st.lagOver, st.lagUnder = false, 0, 0
				nonLaggy++
				h.lagReadmits++
				out = append(out, lagTransition{Anchor: i, Laggy: false, P95: p})
			}
		}
	}
	return out
}

// scoreLocked returns one anchor's current health score. Caller holds
// Server.mu.
func (h *healthTracker) scoreLocked(anchor int) float64 { return h.anchors[anchor].score }

// stateLocked returns one anchor's quarantine state. Caller holds Server.mu.
func (h *healthTracker) stateLocked(anchor int) anchorState { return h.anchors[anchor].state }

// endRoundLocked is the round boundary: it folds the accumulated verdicts into
// the EWMA scores, advances the quarantine state machine and re-elects
// the reference when needed. seen is the completing round's own presence
// set (anchors that contributed at least one row to it); nil falls back
// to judging presence by the verdict accumulators. It returns the state
// transitions that happened and whether the reference changed. Caller
// holds Server.mu.
func (h *healthTracker) endRoundLocked(seen []bool) (transitions []healthTransition, reelected bool) {
	a := h.p.ewmaAlpha
	present := func(i int) bool {
		if seen == nil || i >= len(seen) {
			return h.anchors[i].roundOK+h.anchors[i].roundBad > 0
		}
		return seen[i]
	}
	refSilent := !present(h.ref)
	for i := range h.anchors {
		st := &h.anchors[i]
		// An anchor absent from the round scores zero: silence is exactly
		// as useless as corruption to the estimator, and scoring it keeps
		// a dead reference from holding office.
		roundScore := 0.0
		nRows := st.roundOK + st.roundBad
		if nRows > 0 {
			roundScore = float64(st.roundOK) / float64(nRows)
		}
		cleanRound := nRows > 0 && st.roundBad == 0
		badRows := st.roundBad > 0
		st.roundOK, st.roundBad = 0, 0
		if nRows > 0 || (!present(i) && !st.laggy) {
			// Skipped case one: the anchor DID contribute to this round, but
			// its verdicts were already folded by an earlier boundary —
			// with many tag rounds in flight (an overload burst), several
			// completions share one global accumulator window, and scoring
			// the anchor silent here would quarantine the whole fleet for
			// the server's own backlog.
			// Skipped case two: a laggy anchor absent from the round.
			// Lateness is not corruption — the laggy state machine already
			// excludes it from quorum waits, and rounds now complete early
			// without it by design, so its absence is expected, not a
			// health signal. Quarantining it on top would conflate the two
			// planes (and displace a healthy reference during a burst).
			// Rows it does land are still scored; a genuinely corrupt slow
			// anchor quarantines through those.
			st.score = (1-a)*st.score + a*roundScore
		}

		from := st.state
		switch st.state {
		case anchorHealthy:
			if st.score < h.p.enterScore {
				h.quarantineLocked(st)
			}
		case anchorQuarantined:
			st.cooldown--
			if st.cooldown <= 0 {
				st.state = anchorProbation
				st.cleanRounds = 0
			}
		case anchorProbation:
			switch {
			case badRows:
				// One rejected row during probation sends the anchor
				// straight back: probation exists to catch exactly the
				// radio that "recovers" for a moment and relapses.
				h.quarantineLocked(st)
			case cleanRound:
				st.cleanRounds++
				if st.cleanRounds >= h.p.probationRounds && st.score >= h.p.exitScore {
					st.state = anchorHealthy
					h.readmissions++
				}
			}
		}
		if st.state != from {
			if st.state == anchorQuarantined {
				h.quarantines++
			}
			transitions = append(transitions, healthTransition{Anchor: i, From: from, To: st.state, Score: st.score})
		}
	}

	if h.holdoff > 0 {
		h.holdoff--
	}
	return transitions, h.maybeReelectLocked(refSilent)
}

// quarantineLocked moves one anchor into quarantine with a fresh jittered
// cooldown draw. Caller holds Server.mu.
func (h *healthTracker) quarantineLocked(st *anchorHealth) {
	st.state = anchorQuarantined
	st.cooldown = h.p.cooldownRounds + h.rng.IntN(h.p.cooldownJitter+1)
	st.cleanRounds = 0
}

// exportLocked fills a durable snapshot's health-plane section: per-anchor
// scores and state-machine positions, the elected reference, the
// re-election holdoff and the cumulative counters. The in-flight round
// accumulators (roundOK/roundBad) are deliberately not persisted — a
// restart restarts the round. Caller holds Server.mu.
func (h *healthTracker) exportLocked(st *durable.State) {
	st.Ref = h.ref
	st.Holdoff = h.holdoff
	st.Quarantines = h.quarantines
	st.Readmissions = h.readmissions
	st.Reelections = h.reelections
	st.Anchors = make([]durable.AnchorHealth, len(h.anchors))
	for i := range h.anchors {
		a := &h.anchors[i]
		st.Anchors[i] = durable.AnchorHealth{
			Score:       a.score,
			State:       uint8(a.state),
			Cooldown:    a.cooldown,
			CleanRounds: a.cleanRounds,
		}
	}
}

// restoreLocked replaces the tracker's state with a snapshot's. The
// snapshot has already passed durable's semantic validation (scores in
// [0,1], known state-machine positions, reference in range); the only
// check left is that it describes this deployment's anchor count. Caller
// holds Server.mu (or runs before the server's goroutines start).
func (h *healthTracker) restoreLocked(st *durable.State) error {
	if len(st.Anchors) != len(h.anchors) {
		return fmt.Errorf("locserver: snapshot has %d anchors, deployment has %d",
			len(st.Anchors), len(h.anchors))
	}
	for i, a := range st.Anchors {
		h.anchors[i] = anchorHealth{
			score:       a.Score,
			state:       anchorState(a.State),
			cooldown:    a.Cooldown,
			cleanRounds: a.CleanRounds,
		}
	}
	h.ref = st.Ref
	h.holdoff = st.Holdoff
	h.quarantines = st.Quarantines
	h.readmissions = st.Readmissions
	h.reelections = st.Reelections
	return nil
}

// maybeReelectLocked replaces the reference when it can no longer anchor
// the α correction. Forced elections — the reference is quarantined, or
// went completely silent for a whole round (a dead daemon: a healthy one
// contributes ~37 rows per round, so losing every single row to chance is
// not a thing) — bypass the re-election cooldown; soft ones (score in the
// quarantine band but not yet quarantined) respect it. Caller holds
// Server.mu.
func (h *healthTracker) maybeReelectLocked(refSilent bool) bool {
	ref := &h.anchors[h.ref]
	forced := ref.state == anchorQuarantined || refSilent
	soft := ref.state != anchorHealthy || ref.score < h.p.enterScore
	if !forced && (!soft || h.holdoff > 0) {
		return false
	}
	best, bestScore := -1, -1.0
	for i := range h.anchors {
		if h.anchors[i].state != anchorHealthy || i == h.ref {
			continue
		}
		if h.anchors[i].score > bestScore {
			best, bestScore = i, h.anchors[i].score
		}
	}
	if best < 0 {
		return false // nobody healthier to elect; keep limping
	}
	h.ref = best
	h.reelections++
	h.holdoff = h.p.reelectCooldown + h.rng.IntN(h.p.cooldownJitter+1)
	return true
}
