package locserver

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"bloc/internal/ble"
	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/faultnet"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/wire"
)

// TestReelectionMidRound drives ingest directly (no network, no daemons)
// to pin the in-flight semantics: a round that was already pending when
// the reference was re-elected completes on the OLD reference it captured
// at creation; only rounds created afterwards carry the new one.
func TestReelectionMidRound(t *testing.T) {
	const (
		anchors  = 4
		antennas = 2
		bands    = 4
	)
	var (
		mu    sync.Mutex
		infos []RoundInfo
	)
	srv, err := New("127.0.0.1:0", Config{
		Anchors:       anchors,
		Antennas:      antennas,
		Bands:         ble.DataChannels()[:bands],
		RoundDeadline: 150 * time.Millisecond,
		MinAnchors:    2,
		Logger:        quietLogger(),
		OnSnapshot: func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			mu.Lock()
			infos = append(infos, info)
			mu.Unlock()
			return geom.Pt(0, 0), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rng := rand.New(rand.NewPCG(11, 11))
	send := func(anchor, band int, round uint32) {
		tones := make([]complex128, antennas)
		for j := range tones {
			tones[j] = cmplx.Rect(0.2*(0.6+0.8*rng.Float64()), (rng.Float64()*2-1)*math.Pi)
		}
		srv.ingest(&wire.CSIRow{
			Round: round, TagID: 1, AnchorID: uint8(anchor), BandIdx: uint16(band),
			Tag: tones, Master: cmplx.Rect(0.2, rng.Float64()),
		})
	}
	// Rounds 1 and 2 are both pending before any boundary: anchors 1..3
	// report, the reference (anchor 0) is silent. Both captured Ref = 0.
	for round := uint32(1); round <= 2; round++ {
		for a := 1; a < anchors; a++ {
			for b := 0; b < bands; b++ {
				send(a, b, round)
			}
		}
	}
	// Both complete at their deadlines; round 1's boundary re-elects.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(infos)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 deadline rounds completed", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Round 3 is created after the re-election: it must carry the new ref.
	for a := 1; a < anchors; a++ {
		for b := 0; b < bands; b++ {
			send(a, b, 3)
		}
	}
	for {
		mu.Lock()
		n := len(infos)
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("round 3 never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, info := range infos[:2] {
		// In-flight rounds complete on the reference they started under —
		// and with that reference silent they can only be coarse.
		if info.Ref != 0 {
			t.Errorf("round %d completed with ref %d, want the captured 0", info.Round, info.Ref)
		}
		if !info.Coarse {
			t.Errorf("round %d with a silent reference should be coarse", info.Round)
		}
	}
	if infos[2].Round != 3 {
		t.Fatalf("third completion is round %d, want 3", infos[2].Round)
	}
	if infos[2].Ref == 0 {
		t.Error("round 3 still references the dead anchor 0")
	}
	if infos[2].Coarse {
		t.Error("round 3 should be correction-grade under the new reference")
	}
	st := srv.Stats()
	// Both pending rounds' boundaries can see a silent reference (verdicts
	// are counted between boundaries), so one or two elections are valid —
	// what matters is that the reference moved off the dead anchor.
	if st.Reelections < 1 || st.Reference == 0 {
		t.Errorf("stats = %+v, want re-election away from anchor 0", st)
	}
}

// TestFaultDrillMasterDeathAndCorruption is the acceptance drill: a real
// testbed where one anchor starts reporting NaN CSI mid-run and the master
// (initial reference) dies outright. The system must quarantine the
// corrupt anchor, re-elect the reference within two rounds of the master's
// death, keep emitting finite fixes, and hold accuracy on clean rounds.
func TestFaultDrillMasterDeathAndCorruption(t *testing.T) {
	const (
		seed        = 81
		cleanRounds = 4  // fully healthy
		faultRounds = 10 // anchor 1 corrupt from round 5
		totalRounds = 14 // master dead from round 11
		killRound   = 10
	)
	dep, err := testbed.Paper(seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		infos = map[uint32]RoundInfo{}
	)
	srv, daemons := startTestbedWith(t, seed, func(c *Config) {
		c.RoundDeadline = 250 * time.Millisecond
		c.MinAnchors = 2
	}, func(info RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
		mu.Lock()
		infos[info.Round] = info
		mu.Unlock()
		if info.Coarse {
			res, err := eng.LocateRSSI(snap)
			if err != nil {
				return geom.Point{}, err
			}
			return res.Estimate, nil
		}
		res, err := eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref})
		if err != nil {
			return geom.Point{}, err
		}
		return res.Estimate, nil
	})

	corrupter := faultnet.NewCorrupter(faultnet.CorruptConfig{Seed: seed, NaNProb: 1})
	tag := geom.Pt(0.7, -0.9)
	fixErr := map[uint32]float64{}
	for round := uint32(1); round <= totalRounds; round++ {
		if round == faultRounds/2 {
			// Anchor 1's radio goes bad: every row it reports carries NaN.
			daemons[1].Mutate = corrupter.Apply
		}
		live := daemons
		if round > killRound {
			live = daemons[1:]
		}
		for _, d := range live {
			if err := d.MeasureAndReport(0, round, tag); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if round == killRound {
			daemons[0].Close() // the master dies after its last report
		}
		// Post-death rounds may be evicted while the reference hands over;
		// collect whatever fixes arrive.
		select {
		case fix := <-srv.Fixes():
			if math.IsNaN(fix.X) || math.IsNaN(fix.Y) || math.IsInf(fix.X, 0) || math.IsInf(fix.Y, 0) {
				t.Fatalf("round %d: non-finite fix %+v", fix.Round, fix)
			}
			fixErr[fix.Round] = geom.Pt(fix.X, fix.Y).Dist(tag)
		case <-time.After(5 * time.Second):
			if round <= killRound {
				t.Fatalf("round %d produced no fix (stats %+v)", round, srv.Stats())
			}
		}
	}

	mu.Lock()
	defer mu.Unlock()
	// Re-election within two rounds of the master's death: some round in
	// (killRound, killRound+2] must have completed on a new reference.
	reelected := false
	for r := killRound + 1; r <= killRound+2; r++ {
		if info, ok := infos[uint32(r)]; ok && info.Ref != 0 {
			reelected = true
		}
	}
	if !reelected {
		t.Errorf("no completion on a re-elected reference within 2 rounds of master death (infos %+v)", infos)
	}
	st := srv.Stats()
	if st.Reelections < 1 || st.Reference == 0 {
		t.Errorf("stats = %+v, want the reference elected away from the dead master", st)
	}
	if st.Quarantines < 1 {
		t.Errorf("corrupt anchor never quarantined (stats %+v)", st)
	}
	if st.RowsRejected == 0 {
		t.Error("NaN rows were never rejected")
	}
	// Clean-round accuracy: rounds where all healthy anchors participated
	// and the corruption was already masked must stay sharp.
	var clean []float64
	for r := uint32(1); r <= killRound; r++ {
		if e, ok := fixErr[r]; ok {
			clean = append(clean, e)
		}
	}
	if len(clean) < killRound-1 {
		t.Fatalf("only %d of %d pre-death rounds produced fixes", len(clean), killRound)
	}
	if med := median(clean); med > 2.0 {
		t.Errorf("median clean-round error %.2fm, want < 2m", med)
	}
	// And the system survived: at least one post-death round fixed.
	post := 0
	for r := uint32(killRound + 1); r <= totalRounds; r++ {
		if _, ok := fixErr[r]; ok {
			post++
		}
	}
	if post == 0 {
		t.Error("no fixes at all after the master died")
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
