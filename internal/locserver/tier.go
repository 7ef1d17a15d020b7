package locserver

// Degradation ladder (DESIGN.md §16). Every delivered fix carries an
// explicit quality tier, so the consumers of a fix — trackers, fleet
// dashboards, the estimator itself — know exactly which plane produced
// it instead of decoding the truth from a pile of booleans:
//
//	TierGatedCSI    tracker-prior-gated CSI search   (best)
//	TierFullCSI     full-room CSI search
//	TierFingerprint weighted-KNN against the site-survey fingerprint DB
//	TierCentroid    RSSI trilateration / weighted centroid (worst)
//
// The ladder is descended immediately — a round whose CSI quorum is
// unmet serves at the best degraded tier available right now — but
// climbed hysteretically: after serving degraded, a tag must produce
// promoteAfter consecutive CSI-grade rounds (2 with Config.Fingerprint,
// 1 without) before the server promotes it back, and the holdback rounds are served at the previous
// degraded tier. Without the hysteresis a flaky anchor link makes
// consecutive fixes flap between a ~0.5 m CSI estimate and a ~2-4 m
// fingerprint estimate, which a motion tracker reads as teleportation.
//
// Which degraded tier a coarse round serves at depends on
// Config.Fingerprint: with a fingerprint DB wired in, the estimator can
// answer TierFingerprint lookups and coarse rounds are stamped
// accordingly (and the quorum floor drops to fingerprintMinAnchors —
// KNN with partial-signature matching works below the 3-anchor
// trilateration floor). Without it, coarse means TierCentroid, exactly
// the seed behavior.

// FixTier is the quality rung a fix was served at. Lower is better.
type FixTier uint8

const (
	// TierGatedCSI is a CSI fix for a tracked tag: the estimator can arm
	// its tracker-prior-gated search (DESIGN.md §14).
	TierGatedCSI FixTier = iota
	// TierFullCSI is a CSI fix without usable tracking history: a
	// full-room search at CSI accuracy.
	TierFullCSI
	// TierFingerprint is a weighted-KNN lookup against the site-survey
	// fingerprint DB — CSI quorum unmet, but meters-grade beats the
	// centroid's room-scale error.
	TierFingerprint
	// TierCentroid is the RSSI trilateration / weighted-centroid floor,
	// the only degraded mode the server had before the ladder existed.
	TierCentroid
)

func (t FixTier) String() string {
	switch t {
	case TierGatedCSI:
		return "gated-csi"
	case TierFullCSI:
		return "full-csi"
	case TierFingerprint:
		return "fingerprint"
	case TierCentroid:
		return "centroid"
	default:
		return "unknown"
	}
}

// degraded reports whether the tier sits below the CSI plane.
func (t FixTier) degraded() bool { return t >= TierFingerprint }

// tierState is one tag's position on the ladder: which degraded rung it
// last served at and how many consecutive CSI-grade rounds it has
// produced since (the promotion streak).
type tierState struct {
	tier   FixTier // last degraded rung served
	streak int     // consecutive CSI-grade rounds since demotion
}

// maxTierStates bounds the per-tag ladder map; cleared wholesale at the
// cap like the tag-history and done-round maps (tags then re-promote
// immediately, which only skips some holdbacks).
const maxTierStates = 8192

// naturalTier maps a finalized round's flags to the rung its data can
// support right now, before hysteresis. Caller holds s.mu.
func (s *Server) naturalTierLocked(info RoundInfo) FixTier {
	switch {
	case info.Coarse && s.cfg.Fingerprint:
		return TierFingerprint
	case info.Coarse:
		return TierCentroid
	case info.Tracked:
		return TierGatedCSI
	default:
		return TierFullCSI
	}
}

// applyLadderLocked stamps one admitted fix job with its serving tier,
// walking the tag's hysteresis state: demotions take effect on the spot,
// promotions only after promoteAfter consecutive CSI-grade rounds,
// with the holdback rounds forced coarse and served at the previous
// degraded rung. Runs only for jobs actually admitted to the fix queue
// (shed rounds never move the ladder). Caller holds s.mu.
func (s *Server) applyLadderLocked(job *fixJob) {
	natural := s.naturalTierLocked(job.info)
	tag := job.info.Tag
	serve := natural
	st, held := s.tiers[tag]
	switch {
	case natural.degraded():
		if !held {
			s.stats.TierDemotions++
		}
		if len(s.tiers) >= maxTierStates {
			s.tiers = make(map[uint16]tierState)
		}
		s.tiers[tag] = tierState{tier: natural}
	case held:
		st.streak++
		if st.streak >= s.promoteAfter {
			delete(s.tiers, tag)
			s.stats.TierPromotions++
		} else {
			// Holdback: the snapshot is CSI-grade, but one good round
			// after a degraded stretch is not yet trust. Serve it at the
			// previous rung — forcing Coarse routes the estimator down
			// the same degraded path the last fix took.
			s.tiers[tag] = st
			s.stats.TierHoldbacks++
			job.info.Coarse = true
			serve = st.tier
		}
	}
	job.info.Tier = serve
	switch serve {
	case TierGatedCSI:
		s.stats.TierGatedRounds++
	case TierFullCSI:
		s.stats.TierFullRounds++
	case TierFingerprint:
		s.stats.TierFingerprintRounds++
	case TierCentroid:
		s.stats.TierCentroidRounds++
	}
}
