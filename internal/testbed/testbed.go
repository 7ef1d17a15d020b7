// Package testbed assembles the simulated deployment of §7: a multipath
// room (rfsim), anchor antenna arrays on the walls (geom), a BLE tag, and
// the measurement campaign that produces the CSI snapshots (csi.Snapshot)
// the localization core consumes.
//
// Two measurement fidelities are provided and tested to agree:
//
//   - Sounding: channel-domain — the exact Eq. 2 channels are evaluated per
//     band and garbled with per-retune LO phase offsets and AWGN. This is
//     what the large position sweeps use.
//   - SoundingWaveform: waveform-domain — full GFSK sounding packets are
//     modulated, passed through the channel sample-by-sample and measured
//     back with the csi.Sounder DSP, exercising the entire PHY chain.
package testbed

import (
	"fmt"
	"math"
	"math/rand/v2"

	"bloc/internal/ble"
	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/radio"
	"bloc/internal/rfsim"
)

// Deployment is a configured testbed: environment, anchors and measurement
// parameters. Anchor 0 is the master (§3).
type Deployment struct {
	Env     *rfsim.Environment
	Anchors []geom.Array       // one array per anchor; anchor 0 is master
	Bands   []ble.ChannelIndex // bands measured per acquisition
	Noise   *rfsim.Noise       // channel-estimate noise (channel-domain path)

	// Access is the connection's access address (affects only waveforms).
	Access ble.AccessAddress
	// RunBits is the per-tone sounding run length for waveform mode.
	RunBits int
	// SPS is the waveform oversampling factor.
	SPS int
	// SampleNoiseSigma is the per-sample AWGN sigma for waveform mode.
	SampleNoiseSigma float64
	// TimingJitter, when positive, prepends up to this many noise samples
	// before each waveform-mode packet; receivers then time-align by
	// correlating against the known preamble+access-address prefix, as a
	// real passive anchor must (waveform mode only).
	TimingJitter int
	// Interferers are co-channel wideband transmitters (e.g. Wi-Fi);
	// they add noise to channel estimates on overlapping bands
	// (channel-domain acquisitions only).
	Interferers []Interferer

	seed uint64
	// oscillators: index 0 is the tag, 1..I the anchors.
	oscs []*rfsim.Oscillator
	rng  *rand.Rand
	// antErr[i][j] is the static calibration rotor of anchor i, antenna j
	// (hardware-fixed: shared across Forks).
	antErr [][]complex128
}

// Config carries the tunable parameters of New.
type Config struct {
	Anchors  int     // number of anchors (≥ 2)
	Antennas int     // antennas per anchor (≥ 2), HalfWavelength apart
	SNRdB    float64 // channel-estimate SNR referenced at 3 m (0 → noiseless)
	Seed     uint64
	// AntennaPhaseErrDeg is the 1-σ static per-antenna phase calibration
	// error in degrees (cable mismatch, mutual coupling, imperfect array
	// calibration). It is drawn once per deployment and applied to every
	// measurement on that antenna — the realism that separates idealized
	// array math from the meter-scale AoA errors real systems see. 0
	// disables it.
	AntennaPhaseErrDeg float64
}

// HalfWavelength is λ/2 at mid-band (2.44 GHz), the paper's array spacing.
const HalfWavelength = rfsim.SpeedOfLight / 2.44e9 / 2

// New builds a deployment in the given environment with anchors centered
// on the room walls (the paper's §7 layout: "anchor points are present on
// the 4 edges of the VICON room, in the centre of each edge"), arrays
// parallel to their wall with broadside facing into the room. With more
// than four anchors the extras are placed at the corners.
func New(env *rfsim.Environment, cfg Config) (*Deployment, error) {
	if cfg.Anchors < 2 {
		return nil, fmt.Errorf("testbed: need at least 2 anchors, got %d", cfg.Anchors)
	}
	if cfg.Antennas < 2 {
		return nil, fmt.Errorf("testbed: need at least 2 antennas, got %d", cfg.Antennas)
	}
	if cfg.Anchors > 8 {
		return nil, fmt.Errorf("testbed: at most 8 anchor sites supported, got %d", cfg.Anchors)
	}
	room := env.Room
	inset := 0.05 // arrays sit just inside the walls
	mid := room.Center()
	sites := []struct {
		center geom.Point
		axis   geom.Vector
	}{
		// Wall midpoints: south, north, west, east. Axis chosen so the
		// broadside (axis rotated +90°) points into the room.
		{geom.Pt(mid.X, room.Min.Y+inset), geom.Vec(1, 0)},  // south wall, broadside +Y
		{geom.Pt(mid.X, room.Max.Y-inset), geom.Vec(-1, 0)}, // north wall, broadside -Y
		{geom.Pt(room.Min.X+inset, mid.Y), geom.Vec(0, -1)}, // west wall, broadside +X
		{geom.Pt(room.Max.X-inset, mid.Y), geom.Vec(0, 1)},  // east wall, broadside -X
		// Corner sites for deployments beyond 4 anchors.
		{geom.Pt(room.Min.X+inset, room.Min.Y+inset), geom.Vec(1, -1).Unit()},
		{geom.Pt(room.Max.X-inset, room.Min.Y+inset), geom.Vec(1, 1).Unit()},
		{geom.Pt(room.Max.X-inset, room.Max.Y-inset), geom.Vec(-1, 1).Unit()},
		{geom.Pt(room.Min.X+inset, room.Max.Y-inset), geom.Vec(-1, -1).Unit()},
	}
	anchors := make([]geom.Array, cfg.Anchors)
	for i := range anchors {
		anchors[i] = geom.NewArray(sites[i].center, sites[i].axis, cfg.Antennas, HalfWavelength)
	}
	noise := rfsim.NoNoise()
	//lint:ignore floateq SNRdB == 0 selects the noiseless channel
	if cfg.SNRdB != 0 {
		noise = rfsim.NewNoise(cfg.SNRdB, 3, cfg.Seed^0xA5A5)
	}
	d := &Deployment{
		Env:     env,
		Anchors: anchors,
		Bands:   ble.DataChannels(),
		Noise:   noise,
		Access:  0x50F0B10C,
		RunBits: ble.DefaultRunBits,
		SPS:     4,
		seed:    cfg.Seed,
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0x7E57BED)),
	}
	d.oscs = make([]*rfsim.Oscillator, 1+cfg.Anchors)
	for i := range d.oscs {
		d.oscs[i] = rfsim.NewOscillator(cfg.Seed + uint64(i)*0x9E3779B97F4A7C15 + 1)
	}
	d.antErr = make([][]complex128, cfg.Anchors)
	calRng := rand.New(rand.NewPCG(cfg.Seed, 0xCA11B8A7E))
	sigma := cfg.AntennaPhaseErrDeg * math.Pi / 180
	for i := range d.antErr {
		d.antErr[i] = make([]complex128, cfg.Antennas)
		for j := range d.antErr[i] {
			phi := calRng.NormFloat64() * sigma
			s, c := math.Sincos(phi)
			d.antErr[i][j] = complex(c, s)
		}
	}
	return d, nil
}

// Master returns the master anchor's array (anchor 0).
func (d *Deployment) Master() geom.Array { return d.Anchors[0] }

// Fork returns an independent copy of the deployment sharing the (read-
// only) environment and anchor geometry but with its own oscillators and
// noise source, deterministically derived from the deployment seed and
// salt. Forks make measurement campaigns parallelizable and scheduling-
// independent: position i always measures with Fork(i) regardless of
// which worker runs it.
func (d *Deployment) Fork(salt uint64) *Deployment {
	out := *d
	seed := d.seed ^ (salt+1)*0x9E3779B97F4A7C15
	out.rng = rand.New(rand.NewPCG(seed, 0x7E57BED))
	out.oscs = make([]*rfsim.Oscillator, len(d.oscs))
	for i := range out.oscs {
		out.oscs[i] = rfsim.NewOscillator(seed + uint64(i)*0x9E3779B97F4A7C15 + 1)
	}
	if d.Noise.Sigma > 0 {
		out.Noise = rfsim.NewNoiseSigma(d.Noise.Sigma, seed^0xA5A5)
	}
	return &out
}

// retuneAll simulates every device hopping to a new band: all oscillators
// draw fresh phase offsets (§5.1).
func (d *Deployment) retuneAll() {
	for _, o := range d.oscs {
		o.Retune()
	}
}

// tagRotor returns e^{ι(φT − φRi)}: the distortion on a tag→anchor-i
// measurement.
func (d *Deployment) tagRotor(anchor int) complex128 {
	return d.oscs[0].Rotor() * conj(d.oscs[1+anchor].Rotor())
}

// masterRotor returns e^{ι(φR0 − φRi)}: the distortion on a
// master→anchor-i measurement.
func (d *Deployment) masterRotor(anchor int) complex128 {
	return d.oscs[1].Rotor() * conj(d.oscs[1+anchor].Rotor())
}

// Sounding performs one channel-domain CSI acquisition for a tag at the
// given position: for every band, every anchor measures the tag's
// transmission on all its antennas and every slave anchor overhears the
// master's response, with fresh LO phase offsets per band and AWGN on each
// channel estimate.
func (d *Deployment) Sounding(tag geom.Point) *csi.Snapshot {
	I := len(d.Anchors)
	J := d.Anchors[0].N
	snap := csi.NewSnapshot(d.Bands, I, J)

	// Enumerate paths once per geometry pair; they are band-independent.
	tagPaths := make([][][]rfsim.Path, I) // [anchor][antenna]
	masterPaths := make([][]rfsim.Path, I)
	masterAnt0 := d.Anchors[0].Antenna(0)
	for i, a := range d.Anchors {
		tagPaths[i] = make([][]rfsim.Path, J)
		for j := 0; j < J; j++ {
			tagPaths[i][j] = d.Env.Paths(tag, a.Antenna(j))
		}
		if i > 0 {
			masterPaths[i] = d.Env.Elevated().Paths(masterAnt0, a.Antenna(0))
		}
	}

	for b, ch := range d.Bands {
		f := ch.CenterFreq()
		d.retuneAll()
		for i := 0; i < I; i++ {
			rot := d.tagRotor(i)
			for j := 0; j < J; j++ {
				h := rfsim.ChannelFromPaths(tagPaths[i][j], f)
				snap.Tag[b][i][j] = d.applyInterference(ch, d.Noise.Apply(h*rot*d.antErr[i][j]))
			}
			if i > 0 {
				h := rfsim.ChannelFromPaths(masterPaths[i], f)
				snap.Master[b][i] = d.applyInterference(ch, d.Noise.Apply(h*d.masterRotor(i)*d.antErr[i][0]))
			}
		}
	}
	return snap
}

// SoundingWaveform performs one full PHY acquisition: sounding packets are
// GFSK-modulated, carried through the channel sample-by-sample, and the
// CSI is extracted by the csi.Sounder DSP. Orders of magnitude slower than
// Sounding; intended for PHY validation and microbenchmarks, typically on
// a reduced band list.
func (d *Deployment) SoundingWaveform(tag geom.Point) (*csi.Snapshot, error) {
	I := len(d.Anchors)
	J := d.Anchors[0].N
	snap := csi.NewSnapshot(d.Bands, I, J)

	masterAnt0 := d.Anchors[0].Antenna(0)
	for b, ch := range d.Bands {
		f := ch.CenterFreq()
		d.retuneAll()
		sounder, err := csi.NewSounder(d.Access, ch, d.RunBits, d.SPS)
		if err != nil {
			return nil, err
		}
		ref := sounder.Reference()
		detectRef := ref[:(1+4)*8*d.SPS] // preamble + access address prefix
		receive := func(h, rot complex128) (complex128, error) {
			rx := radio.ApplyChannel(ref, h, rot)
			if d.TimingJitter > 0 {
				// Unknown arrival time: bury the packet in leading and
				// trailing noise and recover alignment by correlation.
				lead := int(d.rng.Uint64() % uint64(d.TimingJitter+1))
				padded := make([]complex128, lead+len(rx)+d.TimingJitter)
				radio.AWGN(padded, maxf(d.SampleNoiseSigma, 1e-6), d.rng)
				radio.MixAdd(padded[lead:], rx)
				off, _, err := radio.Detect(padded, detectRef, 1)
				if err != nil {
					return 0, err
				}
				if off+len(ref) > len(padded) {
					return 0, fmt.Errorf("testbed: detected offset %d runs past buffer", off)
				}
				rx = padded[off : off+len(ref)]
			} else {
				radio.AWGN(rx, d.SampleNoiseSigma, d.rng)
			}
			m, err := sounder.Measure(rx)
			if err != nil {
				return 0, err
			}
			return m.Combined, nil
		}
		// Tag transmits; every anchor antenna receives and measures.
		for i := 0; i < I; i++ {
			rot := d.tagRotor(i)
			for j := 0; j < J; j++ {
				h := rfsim.ChannelFromPaths(d.Env.Paths(tag, d.Anchors[i].Antenna(j)), f)
				v, err := receive(h, rot*d.antErr[i][j])
				if err != nil {
					return nil, fmt.Errorf("testbed: band %v anchor %d antenna %d: %w", ch, i, j, err)
				}
				snap.Tag[b][i][j] = v
			}
		}
		// Master responds on the same band; slaves overhear on antenna 0.
		for i := 1; i < I; i++ {
			h := rfsim.ChannelFromPaths(d.Env.Elevated().Paths(masterAnt0, d.Anchors[i].Antenna(0)), f)
			v, err := receive(h, d.masterRotor(i)*d.antErr[i][0])
			if err != nil {
				return nil, fmt.Errorf("testbed: band %v master overhear anchor %d: %w", ch, i, err)
			}
			snap.Master[b][i] = v
		}
	}
	return snap, nil
}

// TrueChannels returns the noiseless, offset-free physical channels for a
// tag position — the ground-truth h (not ĥ) used by tests and by the
// phase-correction microbenchmark (Fig. 8b).
func (d *Deployment) TrueChannels(tag geom.Point) *csi.Snapshot {
	I := len(d.Anchors)
	J := d.Anchors[0].N
	snap := csi.NewSnapshot(d.Bands, I, J)
	masterAnt0 := d.Anchors[0].Antenna(0)
	for b, ch := range d.Bands {
		f := ch.CenterFreq()
		for i, a := range d.Anchors {
			for j := 0; j < J; j++ {
				snap.Tag[b][i][j] = rfsim.ChannelFromPaths(d.Env.Paths(tag, a.Antenna(j)), f)
			}
			if i > 0 {
				snap.Master[b][i] = rfsim.ChannelFromPaths(d.Env.Elevated().Paths(masterAnt0, a.Antenna(0)), f)
			}
		}
	}
	return snap
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// channelWithRotor evaluates a path set at a frequency and applies an LO
// rotor — the shared step of reference measurements.
func channelWithRotor(paths []rfsim.Path, freqHz float64, rotor complex128) complex128 {
	return rfsim.ChannelFromPaths(paths, freqHz) * rotor
}

// CalibrationSounding measures the reference transmissions each anchor
// uses to self-calibrate its antenna phases: for anchor i, antenna 0 of
// the next anchor ((i+1) mod I) transmits and anchor i measures the
// channel on every antenna, per band, with LO offsets and calibration
// errors applied exactly as in live measurements. It returns the
// measurements (meas[k][i][j]) and the transmitter position used for each
// anchor. Reference links are anchor-height (Elevated), as in Sounding.
func (d *Deployment) CalibrationSounding() (meas [][][]complex128, txPos []geom.Point) {
	I := len(d.Anchors)
	J := d.Anchors[0].N
	txPos = make([]geom.Point, I)
	paths := make([][][]rfsim.Path, I)
	for i := range d.Anchors {
		tx := d.Anchors[(i+1)%I].Antenna(0)
		txPos[i] = tx
		paths[i] = make([][]rfsim.Path, J)
		for j := 0; j < J; j++ {
			paths[i][j] = d.Env.Elevated().Paths(tx, d.Anchors[i].Antenna(j))
		}
	}
	meas = make([][][]complex128, len(d.Bands))
	for b, ch := range d.Bands {
		f := ch.CenterFreq()
		d.retuneAll()
		meas[b] = make([][]complex128, I)
		for i := 0; i < I; i++ {
			// TX oscillator of the (i+1)%I anchor, RX oscillator of i.
			rot := d.oscs[1+(i+1)%I].Rotor() * conj(d.oscs[1+i].Rotor())
			row := make([]complex128, J)
			for j := 0; j < J; j++ {
				h := rfsim.ChannelFromPaths(paths[i][j], f)
				row[j] = d.Noise.Apply(h * rot * d.antErr[i][j])
			}
			meas[b][i] = row
		}
	}
	return meas, txPos
}

// TrueAntennaError returns the simulated calibration rotor of anchor i,
// antenna j, relative to that anchor's antenna 0 — ground truth for
// calibration tests.
func (d *Deployment) TrueAntennaError(i, j int) complex128 {
	return d.antErr[i][j] * conj(d.antErr[i][0])
}

// SoundingMoving performs a channel-domain acquisition while the tag
// moves: band k is measured with the tag at pos(k). A full 37-band hop
// cycle takes ≈280 ms at the fastest connection interval (§6: 40 cycles
// per second hop through all channels), so a tag walking at 1 m/s moves
// ≈28 cm within one acquisition — the coherent cross-band combining then
// sees an inconsistent geometry. This is the motion-smearing regime the
// paper's static evaluation avoids.
func (d *Deployment) SoundingMoving(pos func(band int) geom.Point) *csi.Snapshot {
	I := len(d.Anchors)
	J := d.Anchors[0].N
	snap := csi.NewSnapshot(d.Bands, I, J)
	masterAnt0 := d.Anchors[0].Antenna(0)
	// Master-leg paths are static; tag paths change per band.
	masterPaths := make([][]rfsim.Path, I)
	for i := 1; i < I; i++ {
		masterPaths[i] = d.Env.Elevated().Paths(masterAnt0, d.Anchors[i].Antenna(0))
	}
	for b, ch := range d.Bands {
		f := ch.CenterFreq()
		tag := pos(b)
		d.retuneAll()
		for i := 0; i < I; i++ {
			rot := d.tagRotor(i)
			for j := 0; j < J; j++ {
				h := rfsim.ChannelFromPaths(d.Env.Paths(tag, d.Anchors[i].Antenna(j)), f)
				snap.Tag[b][i][j] = d.applyInterference(ch, d.Noise.Apply(h*rot*d.antErr[i][j]))
			}
			if i > 0 {
				h := rfsim.ChannelFromPaths(masterPaths[i], f)
				snap.Master[b][i] = d.applyInterference(ch, d.Noise.Apply(h*d.masterRotor(i)*d.antErr[i][0]))
			}
		}
	}
	return snap
}

// SoundingWithConnection performs a channel-domain acquisition whose band
// order is driven by a live link-layer connection: one full hop cycle of
// the connection (§2.1) is one acquisition. The connection advances by a
// full cycle; blacklisted channels in its map are simply never measured.
// The snapshot's band list reflects the order actually hopped, which the
// localization engine is invariant to (each band carries its frequency).
func (d *Deployment) SoundingWithConnection(conn *ble.Connection, tag geom.Point) (*csi.Snapshot, error) {
	cycle, err := conn.SoundingCycle()
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	saved := d.Bands
	d.Bands = cycle
	snap := d.Sounding(tag)
	d.Bands = saved
	return snap, nil
}

// CTESounding performs a Bluetooth 5.1 direction-finding acquisition: the
// tag appends a constant tone to a packet on the given channel; every
// anchor antenna-switches through its array sampling the tone, then
// recovers per-antenna relative channels with the CTE estimator. Sample
// noise and a per-acquisition crystal offset (CFO) are applied. The
// result is one complex vector per anchor (antenna 0 normalized), the
// input of a CTE AoA estimator.
func (d *Deployment) CTESounding(tag geom.Point, channel ble.ChannelIndex, sampleSigma float64) ([][]complex128, error) {
	if !channel.Valid() {
		return nil, fmt.Errorf("testbed: invalid channel %d", channel)
	}
	f := channel.CenterFreq()
	cfg := ble.DefaultCTEConfig(d.Anchors[0].N)
	// One crystal offset per acquisition, shared by every observer (it is
	// the tag's clock): ±30 kHz, BLE's post-sync tolerance.
	cfo := (d.rng.Float64()*2 - 1) * 30e3
	d.retuneAll()
	out := make([][]complex128, len(d.Anchors))
	for i, a := range d.Anchors {
		h := make([]complex128, a.N)
		for j := 0; j < a.N; j++ {
			ch := rfsim.ChannelFromPaths(d.Env.Paths(tag, a.Antenna(j)), f)
			h[j] = ch * d.antErr[i][j]
		}
		samples, err := ble.SimulateCTE(cfg, h, d.tagRotor(i), cfo)
		if err != nil {
			return nil, err
		}
		if sampleSigma > 0 {
			for si := range samples {
				samples[si].IQ += complex(d.rng.NormFloat64()*sampleSigma, d.rng.NormFloat64()*sampleSigma)
			}
		}
		est, _, err := ble.EstimateCTE(cfg, samples)
		if err != nil {
			return nil, err
		}
		out[i] = est
	}
	return out, nil
}
