package eval

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/vicon"
)

// SamplePositions draws n tag positions uniformly inside the room (inset
// by margin from the walls) with a minimum pairwise spacing, mirroring the
// paper's 1700 manually-placed locations with ≈10 cm nearest-neighbor
// spacing (§7). Rejection sampling is used; if the spacing constraint
// cannot be met the most recent candidate is accepted anyway after a
// bounded number of attempts, so the function always returns n points.
func SamplePositions(room geom.Rect, n int, minSep, margin float64, seed uint64) []geom.Point {
	inner := room.Inset(margin)
	rng := rand.New(rand.NewPCG(seed, 0x705))
	pts := make([]geom.Point, 0, n)
	const maxAttempts = 60
	for len(pts) < n {
		var cand geom.Point
		ok := false
		for attempt := 0; attempt < maxAttempts; attempt++ {
			cand = geom.Pt(
				inner.Min.X+rng.Float64()*inner.Width(),
				inner.Min.Y+rng.Float64()*inner.Height(),
			)
			ok = true
			for _, p := range pts {
				if p.DistSq(cand) < minSep*minSep {
					ok = false
					break
				}
			}
			if ok {
				break
			}
		}
		pts = append(pts, cand) // accept the last candidate even if crowded
	}
	return pts
}

// Dataset is an acquired measurement campaign: ground-truth positions and
// the CSI snapshot measured at each.
type Dataset struct {
	Truth     []geom.Point    // VICON-observed ground truth
	Snapshots []*csi.Snapshot // one acquisition per position
}

// AcquireOptions configures Acquire.
type AcquireOptions struct {
	Positions int // number of tag positions (at least 1)
	Seed      uint64
	Workers   int                   // parallel acquisition workers (default NumCPU)
	Progress  func(done, total int) // optional progress callback
}

// Acquired positions keep acquireMinSepM apart and acquireMarginM off the
// walls.
const (
	acquireMinSepM float64 = 0.04
	acquireMarginM float64 = 0.25
)

// Acquire samples positions and measures a snapshot at each, observing
// ground truth through the VICON oracle. Acquisition parallelizes over
// positions; each position gets an independent deployment clone seeded
// deterministically so results do not depend on worker scheduling.
func Acquire(d *testbed.Deployment, opts AcquireOptions) (*Dataset, error) {
	if opts.Positions < 1 {
		return nil, fmt.Errorf("eval: %d positions, want at least 1", opts.Positions)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	positions := SamplePositions(d.Env.Room, opts.Positions, acquireMinSepM, acquireMarginM, opts.Seed)
	oracle := vicon.New(vicon.DefaultJitterM, opts.Seed^0xF00D)

	ds := &Dataset{
		Truth:     make([]geom.Point, len(positions)),
		Snapshots: make([]*csi.Snapshot, len(positions)),
	}
	for i, p := range positions {
		ds.Truth[i] = oracle.Observe(p)
	}

	var (
		wg   sync.WaitGroup
		next = make(chan int)
		done = make(chan struct{}, len(positions))
	)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ds.Snapshots[i] = d.Fork(uint64(i)).Sounding(positions[i])
				done <- struct{}{}
			}
		}()
	}
	go func() {
		for i := range positions {
			next <- i
		}
		close(next)
	}()
	completed := 0
	for range positions {
		<-done
		completed++
		if opts.Progress != nil {
			opts.Progress(completed, len(positions))
		}
	}
	wg.Wait()
	for i, s := range ds.Snapshots {
		if s == nil {
			return nil, fmt.Errorf("eval: snapshot %d missing after acquisition", i)
		}
	}
	return ds, nil
}

// Len returns the number of positions in the dataset.
func (ds *Dataset) Len() int { return len(ds.Truth) }

// SaveDataset writes the dataset to w: for each position, the VICON truth
// (two float64, little-endian) followed by the serialized snapshot. The
// record format lets a campaign be collected once and replayed through
// any pipeline configuration.
func SaveDataset(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(ds.Len()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("eval: write header: %w", err)
	}
	for i := 0; i < ds.Len(); i++ {
		var pos [16]byte
		binary.LittleEndian.PutUint64(pos[:8], math.Float64bits(ds.Truth[i].X))
		binary.LittleEndian.PutUint64(pos[8:], math.Float64bits(ds.Truth[i].Y))
		if _, err := bw.Write(pos[:]); err != nil {
			return fmt.Errorf("eval: write truth %d: %w", i, err)
		}
		if _, err := ds.Snapshots[i].WriteTo(bw); err != nil {
			return fmt.Errorf("eval: write snapshot %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("eval: read header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	const maxPositions = 1 << 20
	if n == 0 || n > maxPositions {
		return nil, fmt.Errorf("eval: implausible dataset size %d", n)
	}
	ds := &Dataset{
		Truth:     make([]geom.Point, 0, n),
		Snapshots: make([]*csi.Snapshot, 0, n),
	}
	for i := uint64(0); i < n; i++ {
		var pos [16]byte
		if _, err := io.ReadFull(br, pos[:]); err != nil {
			return nil, fmt.Errorf("eval: read truth %d: %w", i, err)
		}
		ds.Truth = append(ds.Truth, geom.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(pos[:8])),
			math.Float64frombits(binary.LittleEndian.Uint64(pos[8:])),
		))
		snap, err := csi.ReadSnapshot(br)
		if err != nil {
			return nil, fmt.Errorf("eval: read snapshot %d: %w", i, err)
		}
		ds.Snapshots = append(ds.Snapshots, snap)
	}
	return ds, nil
}
