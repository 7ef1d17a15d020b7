package locserver

import (
	"testing"
	"time"
)

// The supState tests drive the pure restart bookkeeping with a
// synthetic clock; the *Locked methods are single-goroutine here, so no
// lock is involved.

func supConfigForTest() SupervisorConfig {
	return SupervisorConfig{
		BackoffInitial: 10 * time.Millisecond,
		BackoffMax:     time.Second,
		Seed:           7,
		RestartWindow:  time.Minute,
	}
}

func TestSupervisorStateEscalatesAndDecays(t *testing.T) {
	st := newSupState(supConfigForTest(), 0)
	base := time.Unix(1000, 0)

	// Restarts 1 and 2 inside the window stay healthy.
	for i := 0; i < 2; i++ {
		if got := st.recordRestartLocked(base.Add(time.Duration(i) * time.Second)); got != cellHealthy {
			t.Fatalf("restart %d: state %v, want healthy", i+1, got)
		}
	}
	// The 3rd degrades, the 6th quarantines.
	for i := 2; i < 5; i++ {
		if got := st.recordRestartLocked(base.Add(time.Duration(i) * time.Second)); got != cellDegraded {
			t.Fatalf("restart %d: state %v, want degraded", i+1, got)
		}
	}
	if got := st.recordRestartLocked(base.Add(5 * time.Second)); got != cellQuarantined {
		t.Fatalf("restart 6: state %v, want quarantined", got)
	}
	// Quarantine holds through the cooldown even as the window thins.
	if got := st.stateLocked(base.Add(5*time.Second + quarantineCooldown/2)); got != cellQuarantined {
		t.Fatalf("mid-cooldown state %v, want quarantined", got)
	}
	// Cooldown over but the window still holds all six restarts: still
	// quarantined on recomputation.
	if got := st.stateLocked(base.Add(36 * time.Second)); got != cellQuarantined {
		t.Fatalf("post-cooldown full-window state %v, want quarantined", got)
	}
	// At +62s the restarts at +0 and +1 have aged out (window 60s),
	// leaving four — degraded.
	if got := st.stateLocked(base.Add(62 * time.Second)); got != cellDegraded {
		t.Fatalf("post-cooldown state %v, want degraded", got)
	}
	if got := st.stateLocked(base.Add(10 * time.Minute)); got != cellHealthy {
		t.Fatalf("aged-out state %v, want healthy", got)
	}
}

func TestSupervisorBackoffGrowsAndCaps(t *testing.T) {
	cfg := supConfigForTest()
	st := newSupState(cfg, 1)
	base := time.Unix(2000, 0)
	prevNominal := time.Duration(0)
	for i := 0; i < 12; i++ {
		st.recordRestartLocked(base.Add(time.Duration(i) * time.Millisecond))
		d := st.backoffLocked()
		// Jitter is ±20%, so bound against the nominal exponential value.
		nominal := cfg.BackoffInitial
		for j := 1; j < st.streak && nominal < cfg.BackoffMax; j++ {
			nominal *= 2
		}
		if nominal > cfg.BackoffMax {
			nominal = cfg.BackoffMax
		}
		lo := time.Duration(float64(nominal) * 0.79)
		hi := time.Duration(float64(nominal) * 1.21)
		if d < lo || d > hi {
			t.Fatalf("restart %d: backoff %v outside [%v, %v]", i+1, d, lo, hi)
		}
		if nominal < prevNominal {
			t.Fatalf("nominal backoff shrank: %v after %v", nominal, prevNominal)
		}
		prevNominal = nominal
	}
	if prevNominal != cfg.BackoffMax {
		t.Fatalf("backoff never reached the cap: %v", prevNominal)
	}
	// A long stable run resets the streak, so the next backoff is small
	// again.
	later := base.Add(10 * time.Minute)
	st.recordRestartLocked(later)
	if d := st.backoffLocked(); d > 2*cfg.BackoffInitial {
		t.Fatalf("backoff after stable run %v, want near %v", d, cfg.BackoffInitial)
	}
}

func TestSupervisorConfigDefaults(t *testing.T) {
	c := SupervisorConfig{}.withDefaults()
	if c.BackoffInitial <= 0 || c.BackoffMax < c.BackoffInitial {
		t.Fatalf("backoff defaults invalid: %+v", c)
	}
}

// TestSupervisorZeroConfigJitters: the zero-value config bloc-server and
// the cellkill drill pass still spreads each backoff by ±20%, so cells
// killed together do not restart in lockstep.
func TestSupervisorZeroConfigJitters(t *testing.T) {
	nominal := SupervisorConfig{}.withDefaults().BackoffInitial
	lo := time.Duration(float64(nominal) * 0.8)
	hi := time.Duration(float64(nominal) * 1.2)
	seen := map[time.Duration]bool{}
	for salt := uint64(0); salt < 8; salt++ {
		st := newSupState(SupervisorConfig{Seed: 1}, salt)
		st.recordRestartLocked(time.Unix(3000, 0))
		d := st.backoffLocked()
		if d < lo || d > hi {
			t.Fatalf("salt %d: backoff %v outside [%v, %v]", salt, d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("every cell backs off %v: restarts in lockstep", nominal)
	}
}
