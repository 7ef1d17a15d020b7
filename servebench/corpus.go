package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"bloc/internal/csi"
	"bloc/internal/eval"
	"bloc/internal/faultnet"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/wire"
)

// Input generation. Everything in this file runs before any server starts
// and is not timed: soundings are simulated once, encoded once as wire
// frames, and the load generator replays them with only the round number
// (and, for fresh tags, the tag ID) patched in.

const (
	// deploySeed is bloc-server's default -seed: the shared room geometry
	// both sides simulate. The workload seed drives everything the tags do.
	deploySeed = 1
	numAnchors = 4

	// The faulty workload's two bad anchors. Neither is the initial
	// α-correction reference (anchor 0), so the reference never moves and
	// every fault lands on the data-quality and quorum planes.
	garbageAnchor = 3
	silentAnchor  = 2
)

// corpus is a workload's pre-encoded input: distinct acquisition rounds
// the generator cycles through.
type corpus struct {
	dep      *testbed.Deployment
	rounds   []corpusRound
	frameLen int    // bytes of one encoded CSIRow frame
	bands    int    // frames per anchor batch
	sum      string // sha256 over every frame, truth and schedule parameter
}

// corpusRound is one simulated acquisition: where the tag really was and
// each anchor's rows as they travel on the wire.
type corpusRound struct {
	truth   geom.Point
	batch   [numAnchors][]byte // one anchor's frames for every band, back to back
	garbage []byte             // faulty only: garbageAnchor's batch with every row corrupted
}

// frame offsets of the fields the generator patches: the 5-byte frame
// header, then the CSIRow payload's Round (uint32) and TagID (uint16).
const (
	offRound = 5
	offTag   = 9
)

// buildCorpus simulates and encodes the workload's distinct rounds. Each
// sounding forks the deployment with a salt derived from the seed and the
// round's index, so the same seed always yields byte-identical frames.
func buildCorpus(w *workload, seed uint64) (*corpus, error) {
	dep, err := testbed.Paper(deploySeed)
	if err != nil {
		return nil, err
	}
	truth := w.positions(dep.Env.Room, seed)
	c := &corpus{dep: dep, rounds: make([]corpusRound, len(truth)), bands: len(dep.Bands)}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	const workers = 2
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(truth); i += workers {
				r, err := encodeRound(dep, truth[i], seed<<24^uint64(i), w.faults)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				c.rounds[i] = r
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	c.frameLen = len(c.rounds[0].batch[0]) / c.bands

	h := sha256.New()
	fmt.Fprintf(h, "%s seed=%d deploy=%d rate=%g tags=%d steps=%d faults=%v\n",
		w.name, seed, deploySeed, w.rate, w.tags, w.steps, w.faults)
	for _, r := range c.rounds {
		binary.Write(h, binary.LittleEndian, [2]float64{r.truth.X, r.truth.Y})
		for _, b := range r.batch {
			h.Write(b)
		}
		h.Write(r.garbage)
	}
	c.sum = fmt.Sprintf("%x", h.Sum(nil))
	return c, nil
}

// encodeRound simulates one sounding and encodes every anchor's rows.
func encodeRound(dep *testbed.Deployment, p geom.Point, salt uint64, faults bool) (corpusRound, error) {
	snap := dep.Fork(salt).Sounding(p)
	r := corpusRound{truth: p}
	for a := 0; a < numAnchors; a++ {
		b, err := encodeBatch(snap, a, nil)
		if err != nil {
			return r, err
		}
		r.batch[a] = b
	}
	if faults {
		// A radio reporting garbage: every tone of the row replaced by the
		// faultnet corrupter, with healthy framing.
		cor := faultnet.NewCorrupter(faultnet.CorruptConfig{Seed: salt | 1, NaNProb: 1})
		b, err := encodeBatch(snap, garbageAnchor, cor.Apply)
		if err != nil {
			return r, err
		}
		r.garbage = b
	}
	return r, nil
}

// encodeBatch encodes anchor a's row of every band with the wire package's
// own framing. mutate, when set, edits each row (on a copy) before encoding.
func encodeBatch(snap *csi.Snapshot, a int, mutate func(*wire.CSIRow)) ([]byte, error) {
	var buf bytes.Buffer
	for k := range snap.Bands {
		row := &wire.CSIRow{
			AnchorID: uint8(a),
			BandIdx:  uint16(k),
			Tag:      append([]complex128(nil), snap.Tag[k][a]...),
			Master:   snap.Master[k][a],
		}
		if mutate != nil {
			mutate(row)
		}
		if err := wire.Send(&buf, row); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// patch stamps a round number and tag ID into every frame of a batch.
func (c *corpus) patch(batch []byte, round uint32, tag uint16) {
	for off := 0; off < len(batch); off += c.frameLen {
		binary.LittleEndian.PutUint32(batch[off+offRound:], round)
		binary.LittleEndian.PutUint16(batch[off+offTag:], tag)
	}
}

// positions lays out the workload's distinct tag positions: for walking
// tags, `steps` points around each tag's closed loop (tag-major); for
// fresh tags, a pool of uniform positions with the paper's spacing rule.
func (w *workload) positions(room geom.Rect, seed uint64) []geom.Point {
	if w.tags == 0 {
		return eval.SamplePositions(room, w.pool, 0.04, 0.25, seed^0xC01D)
	}
	rng := rand.New(rand.NewPCG(seed, 0x3A1C))
	pts := make([]geom.Point, 0, w.tags*w.steps)
	// Centres are stratified, one per cell of a g×g grid, so every seed
	// covers the room alike and seeds differ only within cells.
	g := int(math.Ceil(math.Sqrt(float64(w.tags))))
	for t := 0; t < w.tags; t++ {
		// A circle of 0.8–1.1 m radius walked once per steps/cadence
		// seconds: 0.35–0.45 m/s at 2 Hz and 30 steps, a slow walk that
		// moves the tag about 0.2 m between rounds. Centres keep the whole
		// loop ≥0.5 m inside the 5×6 m room.
		cx := (float64(t%g) + rng.Float64()) / float64(g)
		cy := (float64(t/g) + rng.Float64()) / float64(g)
		c := geom.Pt(-0.9+1.8*cx, -1.4+2.8*cy)
		r := 0.8 + 0.3*rng.Float64()
		phase := 2 * math.Pi * rng.Float64()
		dir := 1.0
		if rng.IntN(2) == 0 {
			dir = -1
		}
		for s := 0; s < w.steps; s++ {
			th := phase + dir*2*math.Pi*float64(s)/float64(w.steps)
			pts = append(pts, geom.Pt(c.X+r*math.Cos(th), c.Y+r*math.Sin(th)))
		}
	}
	return pts
}

// faultPlan decides, round by round in offer order, which faults the
// faulty workload injects. The garbage anchor is a flaky radio: a
// two-state chain flips it into bursts in which every row it reports is
// garbage (long enough to be quarantined, short enough to be readmitted).
// The silent anchor independently omits all its rows of a round.
type faultPlan struct {
	rng *rand.Rand
	bad bool
}

const (
	pGoBad    = 0.02 // per offered round: a clean radio turns garbage
	pGoClean  = 0.10 // per offered round: a garbage burst ends
	pOmitting = 0.01 // per offered round: the silent anchor sends nothing; rare enough that fix_p95_ms stays on the normal path
)

func newFaultPlan(seed uint64) *faultPlan {
	return &faultPlan{rng: rand.New(rand.NewPCG(seed, 0xFA17))}
}

// next returns the faults of the next offered round.
func (f *faultPlan) next() (garbage, omit bool) {
	if f.bad {
		f.bad = f.rng.Float64() >= pGoClean
	} else {
		f.bad = f.rng.Float64() < pGoBad
	}
	return f.bad, f.rng.Float64() < pOmitting
}

// writeSurvey builds the site-survey fingerprint DB the faulty workload's
// server loads, exactly as `bloc-dataset survey -seed 1` would.
func writeSurvey(dep *testbed.Deployment, path string) error {
	db, err := fingerprint.Survey(dep.Env.Room, len(dep.Anchors),
		func(point, rep int, p geom.Point) *csi.Snapshot {
			return dep.Fork(0x5E0<<16 | uint64(point)<<4 | uint64(rep)).Sounding(p)
		}, fingerprint.SurveyOptions{})
	if err != nil {
		return err
	}
	return fingerprint.WriteFile(path, db)
}
