package csi_test

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"bloc/internal/csi"
	"bloc/internal/faultnet"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/wire"
)

// Differential tests of the row validator against its sort-based oracle
// (quality_oracle_test.go), and the validator's per-row price.

// rowOp is one step of a decoded validator stream: a row from one
// anchor, or a Reset of that anchor.
type rowOp struct {
	anchor int
	reset  bool
	tones  []complex128
	master complex128
}

// Stream opcodes. The low four bits of an op byte pick the kind, the
// high four the anchor (modulo the anchor count); kinds 0–7 are all
// level rows, so mutated streams stay mostly well-formed.
const (
	opStuck    = 8  // the anchor's previous row again, bit for bit
	opFrozen   = 9  // the previous row advanced by a constant phase step
	opNonFin   = 10 // the previous row with one NaN or ±Inf component
	opDead     = 11 // every tone below the dead floor, down to zero
	opOverflow = 12 // finite tones whose mean magnitude overflows to +Inf
	opReset    = 13 // Reset the anchor
	opRaw      = 14 // tones and master as raw float64 bits
	opPhase    = 15 // a level row at arbitrary phases
)

// streamHeader bytes: MADWindow (1–70), MADMinSamples (1–72), anchors
// (1–4) and antennas (1–4), StuckRows and FrozenRows (1–8 each).
const streamHeader = 4

// decodeStream turns fuzz bytes into a validator configuration, an
// anchor count and a row stream. Level rows put every tone at one of 256
// magnitudes on the axes, so |z| is exact and equal levels tie exactly
// in the magnitude window.
func decodeStream(data []byte) (csi.QualityConfig, int, []rowOp) {
	var hdr [streamHeader]byte
	copy(hdr[:], data)
	data = data[min(len(data), streamHeader):]
	cfg := csi.QualityConfig{
		MADWindow:     1 + int(hdr[0])%70,
		MADMinSamples: 1 + int(hdr[1])%72,
		StuckRows:     1 + int(hdr[3])%8,
		FrozenRows:    1 + int(hdr[3]>>3)%8,
	}
	anchors, antennas := 1+int(hdr[2])%4, 1+int(hdr[2]>>2)%4
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nextFloat := func() float64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	level := func(l byte) float64 { return math.Ldexp(1+float64(l&3)/4, int(l>>2)-48) }
	levelRow := func(arbitraryPhase bool) []complex128 {
		m := level(next())
		row := make([]complex128, antennas)
		for j := range row {
			q := next()
			if arbitraryPhase {
				row[j] = cmplx.Rect(m, float64(q)*2*math.Pi/256)
				continue
			}
			row[j] = [4]complex128{complex(m, 0), complex(0, m), complex(-m, 0), complex(0, -m)}[q&3]
		}
		return row
	}
	frozenStep := cmplx.Rect(1, 0.05)
	prev := make([][]complex128, anchors)
	var ops []rowOp
	for len(data) > 0 {
		c := next()
		op := rowOp{anchor: int(c>>4) % anchors, master: 1}
		// base is the anchor's previous row, or a fresh level row before
		// its first.
		base := func() []complex128 {
			if p := prev[op.anchor]; p != nil {
				return p
			}
			return levelRow(false)
		}
		switch c & 15 {
		case opStuck:
			op.tones = base()
		case opFrozen:
			op.tones = make([]complex128, antennas)
			for j, z := range base() {
				op.tones[j] = z * frozenStep
			}
		case opNonFin:
			sel := next()
			bad := [4]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()}[sel>>6]
			z := complex(bad, 0)
			if sel&32 != 0 {
				z = complex(0, bad)
			}
			op.tones = append([]complex128(nil), base()...)
			if j := int(sel&31) % (antennas + 1); j < antennas {
				op.tones[j] = z
			} else {
				op.master = z
			}
		case opDead:
			m := math.Ldexp(1, -61-int(next())*4) // 2^-61 down to zero
			op.tones = make([]complex128, antennas)
			for j := range op.tones {
				op.tones[j] = complex(m, -m)
			}
		case opOverflow:
			// |m + mi| overflows on its own for m ≥ 1.3e308; with a zero
			// imaginary part each tone is finite and only a sum of two or
			// more overflows. The quadrant varies the phase exactly.
			sel := next()
			m := (1.3 + float64(sel>>3)/160) * 1e308
			z := complex(m, 0)
			if sel&4 != 0 {
				z = complex(m, m)
			}
			z *= [4]complex128{1, 1i, -1, -1i}[sel&3]
			op.tones = make([]complex128, antennas)
			for j := range op.tones {
				op.tones[j] = z
			}
		case opReset:
			op.reset = true
		case opRaw:
			op.tones = make([]complex128, antennas)
			for j := range op.tones {
				op.tones[j] = complex(nextFloat(), nextFloat())
			}
			op.master = complex(nextFloat(), nextFloat())
		case opPhase:
			op.tones = levelRow(true)
		default:
			op.tones = levelRow(false)
		}
		if !op.reset {
			prev[op.anchor] = op.tones
		}
		ops = append(ops, op)
	}
	return cfg, anchors, ops
}

// streamEncoder builds seed streams in decodeStream's format.
type streamEncoder []byte

func newStream(window, minSamples, anchors, antennas, stuckRows, frozenRows int) streamEncoder {
	return streamEncoder{
		byte(window - 1), byte(minSamples - 1),
		byte(anchors-1) | byte(antennas-1)<<2,
		byte(stuckRows-1) | byte(frozenRows-1)<<3,
	}
}

func (s streamEncoder) op(anchor, kind int, args ...byte) streamEncoder {
	return append(append(s, byte(anchor<<4|kind)), args...)
}

func (s streamEncoder) raw(anchor int, tones []complex128, master complex128) streamEncoder {
	s = s.op(anchor, opRaw)
	for _, z := range append(append([]complex128(nil), tones...), master) {
		s = binary.LittleEndian.AppendUint64(s, math.Float64bits(real(z)))
		s = binary.LittleEndian.AppendUint64(s, math.Float64bits(imag(z)))
	}
	return s
}

// spreadSoundings returns n paper-testbed soundings at positions spread
// over the room, each with its own fork of the deployment's randomness.
func spreadSoundings(tb testing.TB, n int) []*csi.Snapshot {
	tb.Helper()
	dep, err := testbed.Paper(7)
	if err != nil {
		tb.Fatal(err)
	}
	room := testbed.PaperRoom()
	rng := rand.New(rand.NewPCG(7, 7))
	snaps := make([]*csi.Snapshot, n)
	for i := range snaps {
		p := geom.Pt(room.Min.X+0.3+rng.Float64()*(room.Width()-0.6),
			room.Min.Y+0.3+rng.Float64()*(room.Height()-0.6))
		snaps[i] = dep.Fork(uint64(i)).Sounding(p)
	}
	return snaps
}

// validatorSeeds is FuzzRowValidator's seed corpus: a clean
// paper-testbed stream, the same stream with each faultnet.Corrupter
// shape applied to one anchor, hand-built overflow and tie streams, and
// random streams.
func validatorSeeds(tb testing.TB) [][]byte {
	snaps := spreadSoundings(tb, 2)
	testbedStream := func(corrupt *faultnet.Corrupter) []byte {
		s := newStream(64, 16, 4, 4, 4, 6) // paper deployment, default config
		for _, snap := range snaps {
			for i := 0; i < snap.NumAnchors(); i++ {
				for k := 0; k < snap.NumBands(); k++ {
					row := wire.CSIRow{Tag: append([]complex128(nil), snap.Tag[k][i]...), Master: snap.Master[k][i]}
					if corrupt != nil && i == 1 {
						corrupt.Apply(&row)
					}
					s = s.raw(i, row.Tag, row.Master)
				}
			}
		}
		return s
	}
	seeds := [][]byte{testbedStream(nil)}
	for _, cc := range []faultnet.CorruptConfig{
		{Seed: 3, BitFlipProb: 0.3},
		{Seed: 4, NaNProb: 0.3},
		{Seed: 5, StuckTone: true},
		{Seed: 6, CFODriftRadPerRow: 0.05},
		{Seed: 7, GarbageProb: 0.3},
	} {
		seeds = append(seeds, testbedStream(faultnet.NewCorrupter(cc)))
	}

	// Overflow: once the window's upper half reads +Inf the median is
	// infinite; then the window drains back to finite levels. Phases and
	// levels vary row to row so neither the stuck nor the frozen check
	// keeps rows out of the window.
	rng := rand.New(rand.NewPCG(11, 11))
	rb := func() byte { return byte(rng.Uint32()) }
	for _, window := range []int{16, 17} {
		s := newStream(window, 4, 1, 2, 4, 6)
		for r := 0; r < 3*window; r++ {
			if r < window/2 || r >= 2*window {
				s = s.op(0, 0, byte(100+r%7), rb(), rb())
			} else {
				s = s.op(0, opOverflow, rb())
			}
		}
		seeds = append(seeds, s)
	}

	// Ties: long runs of one level, the window full of equal entries,
	// with a reset in the middle.
	s := newStream(8, 3, 2, 1, 8, 8)
	for r := 0; r < 60; r++ {
		if r == 30 {
			s = s.op(1, opReset)
		}
		s = s.op(r%2, 0, byte(120+(r/9)%3), rb())
	}
	seeds = append(seeds, s)

	for n := 0; n < 16; n++ {
		b := make([]byte, 1500)
		for i := range b {
			b[i] = rb()
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzRowValidator runs arbitrary row streams through the production
// validator and the sort-based oracle: verdicts, and the window median
// and MAD to the bit, must agree after every row and every Reset.
func FuzzRowValidator(f *testing.F) {
	for _, seed := range validatorSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, anchors, ops := decodeStream(data)
		v := csi.NewRowValidator(anchors, cfg)
		o := csi.NewOracleValidator(anchors, cfg)
		for n, op := range ops {
			if op.reset {
				v.Reset(op.anchor)
				o.Reset(op.anchor)
			} else if got, want := v.Check(op.anchor, op.tones, op.master), o.Check(op.anchor, op.tones, op.master); got != want {
				t.Fatalf("op %d (anchor %d): verdict %v, oracle %v", n, op.anchor, got, want)
			}
			med, mad, ok := v.WindowStats(op.anchor)
			wantMed, wantMAD, wantOK := o.WindowStats(op.anchor)
			if ok != wantOK || math.Float64bits(med) != math.Float64bits(wantMed) ||
				math.Float64bits(mad) != math.Float64bits(wantMAD) {
				t.Fatalf("op %d (anchor %d): median/MAD %v/%v (ok %v), oracle %v/%v (ok %v)",
					n, op.anchor, med, mad, ok, wantMed, wantMAD, wantOK)
			}
		}
	})
}

var verdictSink csi.RowVerdict

// BenchmarkRowValidatorCheck prices the validator on the rows a server
// receives: paper-testbed soundings at 64 positions spread over the
// room, fed anchor by anchor, band by band. One op is one round (every
// anchor × band row); ns/row divides by the rows checked.
func BenchmarkRowValidatorCheck(b *testing.B) {
	snaps := spreadSoundings(b, 64)
	v := csi.NewRowValidator(snaps[0].NumAnchors(), csi.QualityConfig{})
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		snap := snaps[n%len(snaps)]
		for i := 0; i < snap.NumAnchors(); i++ {
			for k := 0; k < snap.NumBands(); k++ {
				verdictSink = v.Check(i, snap.Tag[k][i], snap.Master[k][i])
			}
		}
		rows += snap.NumAnchors() * snap.NumBands()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}
