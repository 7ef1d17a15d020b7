package locserver

import (
	"math/rand/v2"
	"time"
)

// Cell supervision (DESIGN.md §15). Each fleet cell is crash-only: a
// panic escaping a hook point or the localization callback is recovered
// at the nearest lock-free boundary, reported through OnPanic, and the
// supervisor restarts the whole cell — tear the incarnation down, wait
// out a jittered exponential backoff, rebuild it from its durable
// checkpoint — rather than trusting whatever state the panic tore
// through. Restart frequency drives a per-cell health state machine:
//
//	healthy ──degradedRestarts in RestartWindow──▶ degraded
//	degraded ──quarantineRestarts in RestartWindow──▶ quarantined
//	quarantined ──quarantineCooldown elapsed, window drained──▶ …
//
// A quarantined cell still restarts (its tags deserve service), but
// only after sitting out the cooldown, and the fleet reports it so an
// operator can see which shard is flapping. States decay as restarts
// age out of the sliding window.

// SupervisorConfig tunes cell restart backoff and the window the
// health state machine judges restarts in. The zero value selects the
// documented defaults; the rest of the supervisor is the constants
// below.
type SupervisorConfig struct {
	// BackoffInitial is the delay before the first restart of a streak
	// (default 10ms); each consecutive restart doubles it up to
	// BackoffMax (default 2s).
	BackoffInitial time.Duration
	BackoffMax     time.Duration
	// Seed feeds the deterministic jitter stream (per-cell salted).
	Seed uint64

	// RestartWindow is the sliding window restart counts are judged in
	// (default 30s); a streak also resets once an incarnation survives
	// a full window.
	RestartWindow time.Duration
}

// The fixed half of supervision. Each backoff is spread uniformly in
// [1-backoffJitter, 1+backoffJitter] of its nominal value, so cells
// killed together do not restart in lockstep. A cell is degraded at
// degradedRestarts restarts inside the window and quarantined at
// quarantineRestarts; a quarantined cell sits out quarantineCooldown
// before its restart proceeds.
const (
	backoffFactor      float64 = 2
	backoffJitter      float64 = 0.2
	degradedRestarts           = 3
	quarantineRestarts         = 6
	quarantineCooldown         = 10 * time.Second
)

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.BackoffInitial <= 0 {
		c.BackoffInitial = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.BackoffMax < c.BackoffInitial {
		c.BackoffMax = c.BackoffInitial
	}
	if c.RestartWindow <= 0 {
		c.RestartWindow = 30 * time.Second
	}
	return c
}

// cellState is a supervised cell's health position.
type cellState uint8

const (
	cellHealthy cellState = iota
	cellDegraded
	cellQuarantined
)

func (s cellState) String() string {
	switch s {
	case cellHealthy:
		return "healthy"
	case cellDegraded:
		return "degraded"
	case cellQuarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// supState is one cell's restart bookkeeping: the sliding restart
// window, the consecutive-restart streak that drives backoff, and the
// health state. It is owned by a cell and every mutable field is
// guarded by that cell's mu.
type supState struct {
	cfg SupervisorConfig // resolved; immutable after newSupState
	rng *rand.Rand       // jitter stream; guarded by mu

	window      []time.Time // restarts inside RestartWindow; guarded by mu
	streak      int         // consecutive restarts without a stable run; guarded by mu
	state       cellState   // guarded by mu
	lastRestart time.Time   // guarded by mu
}

func newSupState(cfg SupervisorConfig, salt uint64) *supState {
	cfg = cfg.withDefaults()
	return &supState{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0xCE11^salt)),
	}
}

// pruneLocked drops window entries older than RestartWindow and resets
// the streak once the current incarnation has survived a full window.
// Caller holds the owning cell's mu.
func (st *supState) pruneLocked(now time.Time) {
	cut := 0
	for cut < len(st.window) && now.Sub(st.window[cut]) > st.cfg.RestartWindow {
		cut++
	}
	st.window = st.window[cut:]
	if st.streak > 0 && now.Sub(st.lastRestart) >= st.cfg.RestartWindow {
		st.streak = 0
	}
}

// recordRestartLocked folds one restart into the window and streak and
// returns the resulting state. Caller holds the owning cell's mu.
func (st *supState) recordRestartLocked(now time.Time) cellState {
	st.pruneLocked(now)
	st.window = append(st.window, now)
	st.streak++
	st.lastRestart = now
	st.state = st.classifyLocked()
	return st.state
}

// stateLocked returns the current state, letting it decay as restarts
// age out of the window. Quarantine holds for at least the cooldown.
// Caller holds the owning cell's mu.
func (st *supState) stateLocked(now time.Time) cellState {
	if st.state == cellQuarantined && now.Sub(st.lastRestart) < quarantineCooldown {
		return cellQuarantined
	}
	st.pruneLocked(now)
	st.state = st.classifyLocked()
	return st.state
}

// classifyLocked maps the window population onto a state. Caller holds
// the owning cell's mu.
func (st *supState) classifyLocked() cellState {
	switch n := len(st.window); {
	case n >= quarantineRestarts:
		return cellQuarantined
	case n >= degradedRestarts:
		return cellDegraded
	default:
		return cellHealthy
	}
}

// backoffLocked returns the jittered exponential delay before the next
// restart attempt, derived from the streak recordRestartLocked just
// advanced. Caller holds the owning cell's mu.
func (st *supState) backoffLocked() time.Duration {
	d := float64(st.cfg.BackoffInitial)
	for i := 1; i < st.streak && d < float64(st.cfg.BackoffMax); i++ {
		d *= backoffFactor
	}
	if d > float64(st.cfg.BackoffMax) {
		d = float64(st.cfg.BackoffMax)
	}
	d *= 1 + backoffJitter*(2*st.rng.Float64()-1)
	return time.Duration(d)
}
