// Package durable is BLoc's durable state plane: it persists the server
// state that is expensive to rebuild — per-anchor calibration rotors, the
// elected α-correction reference, anchor health/quarantine scores, the
// round high-water mark and per-tag Kalman tracks — so a restarted
// locserver resumes localizing within a couple of rounds instead of
// paying a cold recalibration and track re-lock (DESIGN.md §11).
//
// The on-disk format is a single self-validating record:
//
//	magic "BLSN" | version u16 | generation u64 | payload length u32 |
//	payload … | CRC-32C over everything before it
//
// Persistence is crash-safe by construction: every Save encodes the next
// generation, writes it to a temporary file, fsyncs, renames over one of
// two alternating slot files and fsyncs the directory. The two slots form
// a generation rotation — the writer always overwrites the slot holding
// the older generation, so the newest good snapshot is never the one
// being replaced. A torn write, bit flip, truncation or version skew is
// caught by the magic/length/checksum validation and the reader falls
// back to the other slot; only when both slots are unusable does Load
// report ErrNoSnapshot (a cold start, never a panic).
package durable

import (
	"fmt"
	"math"
)

// CurrentVersion is the snapshot format version Encode writes. Version 1
// (no per-tag track section) remains decodable so a deployment can roll
// the binary forward without discarding its state.
const CurrentVersion = 2

// Decoder caps: a length-prefixed count may promise at most this much
// before the remaining-byte check rejects it, so a hostile snapshot can
// never make the decoder allocate unboundedly.
const (
	// MaxAnchors bounds the per-anchor health and calibration sections.
	MaxAnchors = 1024
	// MaxAntennas bounds one anchor's calibration rotor count.
	MaxAntennas = 1024
	// MaxTracks bounds the per-tag tracker section.
	MaxTracks = 16384
	// MaxSnapshotSize bounds how much of a slot file Load will read.
	MaxSnapshotSize = 16 << 20
)

// AnchorHealth is one anchor's persisted health-plane state, mirroring
// the locserver health tracker: the EWMA score, the quarantine state
// machine position (0 healthy, 1 quarantined, 2 probation), the rounds of
// cooldown left and the consecutive clean probation rounds.
type AnchorHealth struct {
	Score       float64
	State       uint8
	Cooldown    int
	CleanRounds int
}

// TagTrack is one tag's persisted Kalman filter: the [x, y, vx, vy] state
// mean, the row-major 4×4 covariance, the gate-miss count and the wall
// clock of the filter's last update, accepted or gated out (so a restart
// can compute the first dt).
type TagTrack struct {
	Tag             uint16
	Initialized     bool
	Misses          int
	LastFixUnixNano int64
	X               [4]float64
	P               [16]float64
}

// External is the snapshot section owned by the process embedding the
// server rather than by the server itself: the array calibration rotors
// (core.Calibration.Rotors) and the per-tag tracker filters. The server
// collects it through CheckpointConfig.Export and hands it back through
// CheckpointConfig.Restore.
type External struct {
	// Calib holds the per-anchor, per-antenna calibration rotors; nil
	// means no calibration was established.
	Calib [][]complex128
	// Tracks holds one entry per tag the embedding process is smoothing.
	Tracks []TagTrack
}

// State is everything one snapshot persists.
type State struct {
	// SavedUnixNano is the wall clock at checkpoint time; restore applies
	// the staleness TTL against it.
	SavedUnixNano int64
	// Round is the highest completed acquisition round.
	Round uint32
	// Ref is the elected α-correction reference anchor.
	Ref int
	// Holdoff is the rounds left before the next soft re-election.
	Holdoff int
	// Quarantines, Readmissions and Reelections continue the health
	// plane's cumulative counters across restarts.
	Quarantines  int
	Readmissions int
	Reelections  int
	// Anchors is the per-anchor health state, index-aligned with the
	// deployment.
	Anchors []AnchorHealth

	External
}

// Clone returns a deep copy of the state, so a caller can serialize it
// outside the lock that guarded the original.
func (st *State) Clone() *State {
	out := *st
	out.Anchors = append([]AnchorHealth(nil), st.Anchors...)
	out.Tracks = append([]TagTrack(nil), st.Tracks...)
	if st.Calib != nil {
		out.Calib = make([][]complex128, len(st.Calib))
		for i, r := range st.Calib {
			out.Calib[i] = append([]complex128(nil), r...)
		}
	}
	return &out
}

// Validate checks the semantic invariants a decoded snapshot must satisfy
// before any of it is allowed near live server state: finite scores,
// in-range state machine positions, a reference that indexes an anchor,
// finite calibration rotors and finite track state.
func (st *State) Validate() error {
	if len(st.Anchors) == 0 {
		return fmt.Errorf("durable: snapshot has no anchors")
	}
	if st.Ref < 0 || st.Ref >= len(st.Anchors) {
		return fmt.Errorf("durable: reference %d outside [0,%d)", st.Ref, len(st.Anchors))
	}
	if st.Holdoff < 0 || st.Quarantines < 0 || st.Readmissions < 0 || st.Reelections < 0 {
		return fmt.Errorf("durable: negative health counter")
	}
	for i, a := range st.Anchors {
		if math.IsNaN(a.Score) || math.IsInf(a.Score, 0) || a.Score < 0 || a.Score > 1 {
			return fmt.Errorf("durable: anchor %d score %v outside [0,1]", i, a.Score)
		}
		if a.State > 2 {
			return fmt.Errorf("durable: anchor %d state %d unknown", i, a.State)
		}
		if a.Cooldown < 0 || a.CleanRounds < 0 {
			return fmt.Errorf("durable: anchor %d negative cooldown or clean-round count", i)
		}
	}
	if st.Calib != nil && len(st.Calib) != len(st.Anchors) {
		return fmt.Errorf("durable: calibration covers %d anchors, health %d", len(st.Calib), len(st.Anchors))
	}
	for i, rotors := range st.Calib {
		if len(rotors) == 0 {
			return fmt.Errorf("durable: anchor %d has no calibration rotors", i)
		}
		for j, r := range rotors {
			if !finiteC(r) {
				return fmt.Errorf("durable: non-finite calibration rotor anchor %d antenna %d", i, j)
			}
		}
	}
	for ti, tr := range st.Tracks {
		if tr.Misses < 0 {
			return fmt.Errorf("durable: track %d negative miss count", ti)
		}
		for _, v := range tr.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("durable: track %d non-finite state", ti)
			}
		}
		for _, v := range tr.P {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("durable: track %d non-finite covariance", ti)
			}
		}
	}
	return nil
}

func finiteC(z complex128) bool {
	re, im := real(z), imag(z)
	return !math.IsNaN(re) && !math.IsInf(re, 0) && !math.IsNaN(im) && !math.IsInf(im, 0)
}
