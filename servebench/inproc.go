package main

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/track"
)

// The traced run's server: a locserver.Server in this process, configured
// as bloc-server configures its own, whose estimator makes the same public
// calls bloc-server's OnSnapshot makes. Spans are recorded here, in the
// benchmark, around every call into a layer; the server's code is not
// instrumented.

// Span layers. Every span of a round carries the round's slot, which
// identifies the (tag, round) pair.
const (
	spanAssemble    uint8 = iota // last row written → estimator entered (read, decode, validate, assemble, queue)
	spanEstimate                 // the whole estimator call
	spanFPObserve                // fingerprint.Filter.Observe
	spanFPLocate                 // fingerprint.DB.Locate
	spanLocateRSSI               // core.Engine.LocateRSSI
	spanGatePrior                // track ellipse → core.GatePolicy.Prior
	spanLocateGated              // core.Engine.LocateOpts with a prior
	spanLocateFull               // core.Engine.LocateOpts without one
	spanGateObserve              // core.GatePolicy.Observe
	spanTrack                    // track.Filter.Update
	spanDeliver                  // estimator returned → first fix frame received
	numLayers
)

var spanNames = [numLayers]string{
	"locserver.assemble", "estimator", "fingerprint.observe", "fingerprint.locate",
	"core.locate_rssi", "core.gate_prior", "core.locate_gated", "core.locate_full",
	"core.gate_observe", "track.update", "locserver.deliver",
}

// spanParent names the span each layer's span sits inside.
func spanParent(layer uint8) string {
	switch layer {
	case spanAssemble, spanEstimate, spanDeliver:
		return "round"
	default:
		return "estimator"
	}
}

type span struct {
	slot       int32
	layer      uint8
	start, end int64 // generator time, ns
}

// tracer keeps spans in a preallocated buffer until the run ends.
type tracer struct {
	spans []span
	n     atomic.Int64
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

func (t *tracer) add(slot int, layer uint8, start, end int64) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{slot: int32(slot), layer: layer, start: start, end: end}
	}
}

// recorded returns the spans kept (all of them unless the buffer filled).
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string, d *loadgen) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.recorded() {
		sl := &d.slots[s.slot]
		fmt.Fprintf(bw, `{"tag":%d,"round":%d,"span":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			sl.tag, s.slot+1, spanNames[s.layer], spanParent(s.layer), s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// estimator mirrors cmd/bloc-server's tagState and OnSnapshot: the same
// calls into core, track and fingerprint, in the same order. bloc-server
// applies an array calibration first only when started with -calibrate,
// which the benchmark does not pass.
type estimator struct {
	eng  *core.Engine
	fpdb *fingerprint.DB
	d    *loadgen
	tr   *tracer // nil: untraced

	mu    sync.Mutex
	trks  map[uint16]*track.Filter       // guarded by mu
	last  map[uint16]int64               // guarded by mu
	gates map[uint16]*core.GatePolicy    // guarded by mu
	fps   map[uint16]*fingerprint.Filter // guarded by mu
}

func (e *estimator) mark() int64 {
	if e.tr == nil {
		return 0
	}
	return e.d.now()
}

func (e *estimator) span(slot int, layer uint8, start int64) {
	if e.tr != nil && slot >= 0 {
		e.tr.add(slot, layer, start, e.d.now())
	}
}

func (e *estimator) onSnapshot(info locserver.RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
	slot := -1
	if s := e.d.slotOf(info.Round, info.Tag); s != nil {
		slot = int(info.Round) - 1
		s.tier.Store(uint32(info.Tier) + 1)
		if e.tr != nil {
			t0 := e.d.now()
			e.tr.add(slot, spanAssemble, s.written.Load(), t0)
			defer func() {
				t1 := e.d.now()
				s.returned.Store(t1)
				e.tr.add(slot, spanEstimate, t0, t1)
			}()
		}
	}

	e.observeRSSI(slot, info.Tag, snap)
	if info.Coarse {
		if info.Tier == locserver.TierFingerprint {
			if p, err := e.fingerprintFix(slot, info.Tag); err == nil {
				return e.smooth(slot, info.Tag, p), nil
			}
		}
		t := e.mark()
		res, err := e.eng.LocateRSSI(snap)
		e.span(slot, spanLocateRSSI, t)
		if err != nil {
			return geom.Point{}, err
		}
		return e.smooth(slot, info.Tag, res.Estimate), nil
	}
	var prior *core.Prior
	if info.Tracked {
		t := e.mark()
		prior = e.prior(info.Tag)
		e.span(slot, spanGatePrior, t)
	}
	layer := spanLocateFull
	if prior != nil {
		layer = spanLocateGated
	}
	t := e.mark()
	res, err := e.eng.LocateOpts(snap, core.LocateOptions{Ref: info.Ref, Prior: prior})
	e.span(slot, layer, t)
	if err != nil {
		return geom.Point{}, err
	}
	if prior != nil {
		t := e.mark()
		e.observe(info.Tag, res)
		e.span(slot, spanGateObserve, t)
	}
	return e.smooth(slot, info.Tag, res.Estimate), nil
}

func (e *estimator) observeRSSI(slot int, tag uint16, snap *csi.Snapshot) {
	if e.fpdb == nil {
		return
	}
	t := e.mark()
	sig := fingerprint.Signature(snap)
	e.mu.Lock()
	filt := e.fps[tag]
	if filt == nil {
		filt = fingerprint.NewFilter(e.fpdb.Anchors, fingerprint.FilterOptions{})
		e.fps[tag] = filt
	}
	filt.Observe(sig)
	e.mu.Unlock()
	e.span(slot, spanFPObserve, t)
}

func (e *estimator) fingerprintFix(slot int, tag uint16) (geom.Point, error) {
	var sig []float64
	e.mu.Lock()
	if filt := e.fps[tag]; filt != nil {
		sig = filt.Signature()
	}
	e.mu.Unlock()
	if e.fpdb == nil || sig == nil {
		return geom.Point{}, fingerprint.ErrNoMatch
	}
	t := e.mark()
	p, err := e.fpdb.Locate(sig)
	e.span(slot, spanFPLocate, t)
	return p, err
}

func (e *estimator) prior(tag uint16) *core.Prior {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.trks[tag]
	if f == nil {
		return nil
	}
	ell, ok := f.ConfidenceEllipse(1)
	if !ok {
		return nil
	}
	g := e.gates[tag]
	if g == nil {
		g = core.NewGatePolicy()
		e.gates[tag] = g
	}
	p := g.Prior(ell.Center, ell.SemiMajor, ell.SemiMinor, ell.Theta)
	return &p
}

func (e *estimator) observe(tag uint16, res *core.Result) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g := e.gates[tag]; g != nil {
		g.Observe(res)
	}
}

func (e *estimator) smooth(slot int, tag uint16, raw geom.Point) geom.Point {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.trks[tag]
	if f == nil {
		nf, err := track.New(track.DefaultConfig())
		if err != nil {
			return raw
		}
		f = nf
		e.trks[tag] = f
	}
	now := time.Now().UnixNano()
	dt := 0.1
	if last := e.last[tag]; last != 0 && now > last {
		dt = float64(now-last) / float64(time.Second)
	}
	t := e.mark()
	pos, ok, err := f.Update(raw, dt)
	e.span(slot, spanTrack, t)
	if err != nil || !ok {
		if f.Initialized() {
			return pos
		}
		return raw
	}
	e.last[tag] = now
	return pos
}

// inproc is a running in-process server.
type inproc struct {
	srv *locserver.Server
	eng *core.Engine
}

// startInproc builds the engine and server exactly as bloc-server does
// with the workload's flags, logging at bloc-server's level into a
// discarded handler so per-fix log formatting is still paid.
func startInproc(d *loadgen, opts serverOpts, fpPath string, tr *tracer) (*inproc, error) {
	dep := d.c.dep
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return nil, err
	}
	est := &estimator{
		eng:   eng,
		d:     d,
		tr:    tr,
		trks:  make(map[uint16]*track.Filter),
		last:  make(map[uint16]int64),
		gates: make(map[uint16]*core.GatePolicy),
		fps:   make(map[uint16]*fingerprint.Filter),
	}
	if opts.fingerprint {
		if est.fpdb, err = fingerprint.ReadFile(fpPath); err != nil {
			return nil, err
		}
	}
	minAnchors := opts.minAnchors
	if minAnchors == 0 {
		minAnchors = 2
	}
	srv, err := locserver.New("127.0.0.1:0", locserver.Config{
		Anchors:           numAnchors,
		Antennas:          dep.Anchors[0].N,
		Bands:             dep.Bands,
		RoundDeadline:     2 * time.Second,
		MinAnchors:        minAnchors,
		MinBands:          1,
		HeartbeatInterval: 2 * time.Second,
		FixWorkers:        2,
		FixQueueDepth:     64,
		Breaker:           locserver.BreakerConfig{Threshold: 3, Cooldown: 2 * time.Second},
		Fingerprint:       est.fpdb != nil,
		OnSnapshot:        est.onSnapshot,
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		d.onDeliver = func(i int) {
			s := &d.slots[i]
			if r := s.returned.Load(); r != 0 {
				tr.add(i, spanDeliver, r, s.fixAt.Load())
			}
		}
	}
	return &inproc{srv: srv, eng: eng}, nil
}
