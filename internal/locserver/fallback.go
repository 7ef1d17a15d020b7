package locserver

import (
	"sync"

	"bloc/internal/ble"
	"bloc/internal/csi"
	"bloc/internal/wire"
)

// fallbackCollector assembles rounds for tags whose home cell is down
// (DESIGN.md §15). While a cell restarts, its anchors' rows would
// otherwise be dropped on the floor; instead the fleet buckets them
// here, and a bucket that fills (every anchor × band row arrived)
// yields a complete snapshot a neighbor cell localizes coarsely — a
// flagged RSSI-grade fix beats silence for a tag mid-track. Incomplete
// buckets are never flushed: the down cell's own deadline machinery is
// gone, and a partial coarse fix from unvalidated rows is not worth
// guessing over.

// fbKey identifies one down cell's acquisition round.
type fbKey struct {
	cell  int
	tag   uint16
	round uint32
}

// fbBucket accumulates one round's rows.
type fbBucket struct {
	snap *csi.Snapshot
	rows []bool // received, indexed anchor*len(bands) + band
	got  int    // rows received
}

// maxFallbackBuckets bounds the collector; at the cap the buckets are
// cleared wholesale (rounds mid-assembly during a restart storm are
// lost, which only costs fallback fixes, never correctness).
const maxFallbackBuckets = 1024

type fallbackCollector struct {
	anchors  int // per-cell anchor count
	antennas int
	bands    []ble.ChannelIndex

	mu      sync.Mutex
	buckets map[fbKey]*fbBucket // guarded by mu
	// dropped counts buckets discarded before completing: cleared on a
	// cell's revival (drop) or evicted wholesale at the collector cap.
	// Surfaced as FleetStats.FallbackDropped — a climbing value during an
	// outage means fallback rounds are being assembled but thrown away,
	// i.e. the down window is costing fixes, not just accuracy.
	dropped int // guarded by mu
}

func newFallbackCollector(anchors, antennas int, bands []ble.ChannelIndex) *fallbackCollector {
	return &fallbackCollector{
		anchors:  anchors,
		antennas: antennas,
		bands:    bands,
		buckets:  make(map[fbKey]*fbBucket),
	}
}

// add merges one cell-local row for a down cell; when the row completes
// its round the snapshot is returned (and the bucket retired) for a
// coarse neighbor fix. Rows are not sanity-checked here — the coarse
// RSSI path is already the lowest-trust tier.
func (fc *fallbackCollector) add(cell int, row *wire.CSIRow) (*csi.Snapshot, bool) {
	if int(row.BandIdx) >= len(fc.bands) || len(row.Tag) != fc.antennas ||
		int(row.AnchorID) >= fc.anchors {
		return nil, false
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	k := fbKey{cell: cell, tag: row.TagID, round: row.Round}
	b := fc.buckets[k]
	if b == nil {
		if len(fc.buckets) >= maxFallbackBuckets {
			fc.dropped += len(fc.buckets)
			fc.buckets = make(map[fbKey]*fbBucket)
		}
		b = &fbBucket{
			snap: csi.NewSnapshot(fc.bands, fc.anchors, fc.antennas),
			rows: make([]bool, fc.anchors*len(fc.bands)),
		}
		fc.buckets[k] = b
	}
	idx := int(row.AnchorID)*len(fc.bands) + int(row.BandIdx)
	if b.rows[idx] {
		return nil, false
	}
	b.rows[idx] = true
	b.got++
	copy(b.snap.Tag[row.BandIdx][row.AnchorID], row.Tag)
	if row.AnchorID != 0 {
		b.snap.Master[row.BandIdx][row.AnchorID] = row.Master
	}
	if b.got >= len(b.rows) {
		delete(fc.buckets, k)
		return b.snap, true
	}
	return nil, false
}

// drop discards every bucket belonging to a cell (called when the cell
// comes back: its own acquisition plane owns new rounds from here on,
// and a half-filled bucket would double-fix a round the revived cell
// also completes).
func (fc *fallbackCollector) drop(cell int) {
	fc.mu.Lock()
	for k := range fc.buckets {
		if k.cell == cell {
			delete(fc.buckets, k)
			fc.dropped++
		}
	}
	fc.mu.Unlock()
}

// droppedCount reports how many incomplete buckets have been discarded
// since startup.
func (fc *fallbackCollector) droppedCount() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.dropped
}
