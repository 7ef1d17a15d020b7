package main

import (
	"math"
	"sort"

	"bloc/internal/geom"
	"bloc/internal/locserver"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tierCode maps a tier name from the server log to slot.tier's encoding
// (FixTier + 1; 0 stays "unknown").
func tierCode(name string) uint32 {
	for t := locserver.TierGatedCSI; t <= locserver.TierCentroid; t++ {
		if t.String() == name {
			return uint32(t) + 1
		}
	}
	return 0
}

// inRoom reports whether a fix lies inside the room (never for NaN).
func inRoom(room geom.Rect, x, y float64) bool {
	return x >= room.Min.X && x <= room.Max.X && y >= room.Min.Y && y <= room.Max.Y
}

// outsideBy is how far a fix lies outside the room (m); +Inf when it is
// not finite.
func outsideBy(room geom.Rect, x, y float64) float64 {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.Inf(1)
	}
	dx := math.Max(math.Max(room.Min.X-x, x-room.Max.X), 0)
	dy := math.Max(math.Max(room.Min.Y-y, y-room.Max.Y), 0)
	return math.Hypot(dx, dy)
}
