package locserver

import (
	"testing"

	"bloc/internal/csi"
)

// Unit tests for the quarantine state machine and reference election,
// driving the tracker's round boundaries directly (no network, no clock).

func newTestTracker(anchors int) *healthTracker {
	h := newHealthTracker(anchors, HealthConfig{Seed: 1})
	// No jitter: deterministic cooldowns for assertions.
	h.p.cooldownRounds, h.p.cooldownJitter = 4, 0
	return h
}

// roundOf feeds one round's worth of verdicts for every anchor and closes
// the boundary: ok/bad counts per anchor index.
func roundOf(h *healthTracker, ok, bad []int) ([]healthTransition, bool) {
	for i := range h.anchors {
		for r := 0; r < ok[i]; r++ {
			h.observeLocked(i, csi.RowOK)
		}
		for r := 0; r < bad[i]; r++ {
			h.observeLocked(i, csi.RowNonFinite)
		}
	}
	seen := make([]bool, len(h.anchors))
	for i := range seen {
		seen[i] = ok[i]+bad[i] > 0
	}
	return h.endRoundLocked(seen)
}

// TestHealthQuarantineHysteresis is the no-flapping guarantee: once
// quarantined, an anchor stays quarantined for the full cooldown even if
// its data turns perfectly clean immediately, then must earn readmission
// through probation — it cannot bounce healthy→quarantined→healthy across
// consecutive rounds.
func TestHealthQuarantineHysteresis(t *testing.T) {
	h := newTestTracker(2)
	// Poison anchor 1 until it quarantines (EWMA needs a few rounds).
	rounds := 0
	for h.stateLocked(1) != anchorQuarantined {
		roundOf(h, []int{10, 0}, []int{0, 10})
		if rounds++; rounds > 10 {
			t.Fatal("anchor never quarantined")
		}
	}
	if h.quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", h.quarantines)
	}
	// Data turns clean instantly; the anchor must still sit out the whole
	// cooldown (4 rounds) in quarantine — no flapping.
	for r := 0; r < 3; r++ {
		roundOf(h, []int{10, 10}, []int{0, 0})
		if got := h.stateLocked(1); got != anchorQuarantined {
			t.Fatalf("cooldown round %d: state %v, want quarantined", r, got)
		}
	}
	roundOf(h, []int{10, 10}, []int{0, 0})
	if got := h.stateLocked(1); got != anchorProbation {
		t.Fatalf("after cooldown: state %v, want probation", got)
	}
	// Probation: 3 clean rounds AND score recovered past exitScore.
	for h.stateLocked(1) == anchorProbation {
		roundOf(h, []int{10, 10}, []int{0, 0})
		if rounds++; rounds > 30 {
			t.Fatal("anchor never readmitted")
		}
	}
	if got := h.stateLocked(1); got != anchorHealthy {
		t.Fatalf("after probation: state %v, want healthy", got)
	}
	if h.readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", h.readmissions)
	}
	if h.quarantines != 1 {
		t.Fatalf("quarantines = %d after recovery, want still 1 (no flap)", h.quarantines)
	}
}

// TestHealthProbationRelapse: one rejected row during probation sends the
// anchor straight back to quarantine with a fresh cooldown.
func TestHealthProbationRelapse(t *testing.T) {
	h := newTestTracker(2)
	for h.stateLocked(1) != anchorQuarantined {
		roundOf(h, []int{10, 0}, []int{0, 10})
	}
	for h.stateLocked(1) != anchorProbation {
		roundOf(h, []int{10, 10}, []int{0, 0})
	}
	// Mostly clean round with a single bad row: instant requarantine.
	roundOf(h, []int{10, 9}, []int{0, 1})
	if got := h.stateLocked(1); got != anchorQuarantined {
		t.Fatalf("after probation relapse: state %v, want quarantined", got)
	}
	if h.quarantines != 2 {
		t.Fatalf("quarantines = %d, want 2", h.quarantines)
	}
	if cd := h.anchors[1].cooldown; cd != 4 {
		t.Fatalf("relapse cooldown = %d, want a fresh full draw (4)", cd)
	}
}

// TestHealthSilentReferenceForcesReelection: a reference that contributes
// zero rows in a round is replaced at that round's boundary, bypassing the
// re-election holdoff — one round, not an EWMA decay's worth.
func TestHealthSilentReferenceForcesReelection(t *testing.T) {
	h := newTestTracker(3)
	if h.referenceLocked() != 0 {
		t.Fatalf("initial reference %d, want 0", h.referenceLocked())
	}
	// Anchor 2 slightly outscores anchor 1 so the election is deterministic.
	roundOf(h, []int{10, 9, 10}, []int{0, 1, 0})
	if h.referenceLocked() != 0 {
		t.Fatal("healthy reference replaced without cause")
	}
	_, reelected := roundOf(h, []int{0, 9, 10}, []int{0, 1, 0})
	if !reelected {
		t.Fatal("silent reference not replaced at the next round boundary")
	}
	if got := h.referenceLocked(); got != 2 {
		t.Fatalf("elected %d, want highest-score healthy anchor 2", got)
	}
	if h.reelections != 1 {
		t.Fatalf("reelections = %d, want 1", h.reelections)
	}
}

// TestHealthDegradedReferenceNotThrashed: a reference whose score sags but
// stays above the quarantine threshold is never replaced, even when other
// anchors score strictly higher — re-election needs cause (quarantine,
// silence, or a sub-threshold score), not a mere ranking change.
func TestHealthDegradedReferenceNotThrashed(t *testing.T) {
	h := newTestTracker(3)
	for r := 0; r < 10; r++ {
		// Reference drops 3 of 10 rows every round: score settles near 0.7,
		// well above enterScore but far below its rivals' 1.0.
		_, re := roundOf(h, []int{7, 10, 10}, []int{3, 0, 0})
		if re {
			t.Fatalf("round %d: healthy above-threshold reference replaced", r)
		}
	}
	if h.referenceLocked() != 0 || h.reelections != 0 {
		t.Fatalf("ref %d reelections %d, want 0 and 0", h.referenceLocked(), h.reelections)
	}
}

// TestHealthNoEligibleReplacement: when every other anchor is quarantined
// the tracker keeps the current reference rather than electing a corrupt
// one.
func TestHealthNoEligibleReplacement(t *testing.T) {
	h := newTestTracker(2)
	// Quarantine anchor 1, then silence the reference: no healthy
	// replacement exists, so the reference must not move.
	for h.stateLocked(1) != anchorQuarantined {
		roundOf(h, []int{10, 0}, []int{0, 10})
	}
	_, re := roundOf(h, []int{0, 0}, []int{0, 10})
	if re || h.referenceLocked() != 0 {
		t.Fatalf("elected a non-healthy replacement: ref %d", h.referenceLocked())
	}
}
