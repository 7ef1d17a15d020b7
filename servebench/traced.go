package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/fingerprint"
	"bloc/internal/wire"
)

// The traced run: the workload's inputs driven into an in-process server
// twice (untraced, then traced) and into the binary once, so the per-layer
// numbers come with their tracing overhead and their distance from the
// shipped binary.

// minSpans is how many spans a layer needs in the measured window before
// its timing is taken from the live run; a layer the workload barely
// touches is timed by replaying the workload's own rounds through it.
const minSpans = 50

// replayRounds is how many of the workload's rounds a replay times.
const replayRounds = 200

// streamRounds bounds the measured rounds whose rows the decode and
// validation replays hold in memory (about 150 k rows).
const streamRounds = 1000

func runTraced(cfg *config) (int, int, error) {
	untraced, err := cfg.inprocPass(nil)
	if err != nil {
		return 0, 0, fmt.Errorf("in-process untraced: %w", err)
	}
	tr := newTracer(cfg.maxRounds(false) * int(numLayers))
	traced, err := cfg.inprocPass(tr)
	if err != nil {
		return 0, 0, fmt.Errorf("in-process traced: %w", err)
	}
	bin, err := cfg.binaryPass(1, false)
	if err != nil {
		return 0, 0, fmt.Errorf("binary: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(cfg.root, ".bench_build", "traces"), 0o755); err != nil {
		return 0, 0, err
	}
	tracePath := filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	if err := tr.write(tracePath, traced.d); err != nil {
		return 0, 0, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.recorded()), tracePath)

	// Span durations of the measured window, by layer.
	var byLayer [numLayers][]float64 // ms
	for _, s := range tr.recorded() {
		if traced.d.slots[s.slot].phase == phaseOpen {
			byLayer[s.layer] = append(byLayer[s.layer], float64(s.end-s.start)/1e6)
		}
	}
	rp, err := newReplayer(cfg, traced)
	if err != nil {
		return 0, 0, err
	}
	layerTime := func(layer uint8, replay func() []float64) ([]float64, string) {
		if len(byLayer[layer]) >= minSpans {
			return byLayer[layer], fmt.Sprintf("%d spans", len(byLayer[layer]))
		}
		return replay(), fmt.Sprintf("only %d spans; replayed %d of the workload's rounds", len(byLayer[layer]), replayRounds)
	}

	fmt.Printf("per-layer metrics (workload %s):\n", cfg.w.name)
	asm := byLayer[spanAssemble]
	cfg.report("locserver.assemble_ms_p50", median(asm), "ms", fmt.Sprintf("last row written → estimator entered, %d spans", len(asm)))
	cfg.report("locserver.assemble_ms_p99", quantile(asm, 0.99), "ms", "")
	del := byLayer[spanDeliver]
	cfg.report("locserver.deliver_ms_p50", median(del), "ms", fmt.Sprintf("estimator returned → first fix frame, %d spans", len(del)))
	cfg.report("locserver.deliver_ms_p99", quantile(del, 0.99), "ms", "")

	s0, s1 := traced.srv[0], traced.srv[1]
	completed := float64((s1.Full + s1.Partial + s1.Coarse) - (s0.Full + s0.Partial + s0.Coarse))
	rowsSent := traced.sum.bytesPerRound * float64(traced.sum.open) / float64(cfg.corpus.frameLen)
	cfg.report("locserver.queue_peak", float64(s1.QueuePeak), "count", "high-water mark")
	cfg.report("locserver.shed", float64(s1.OverloadShed-s0.OverloadShed), "count", "")
	cfg.report("locserver.degraded", float64(s1.OverloadDegraded-s0.OverloadDegraded), "count", "")
	cfg.report("locserver.budget_dropped", float64(s1.BudgetExceeded-s0.BudgetExceeded), "count", "")
	cfg.report("locserver.evicted", float64(s1.Evicted-s0.Evicted), "count", "")
	cfg.report("locserver.partial_ratio", ratio(float64(s1.Partial-s0.Partial), completed), "ratio", fmt.Sprintf("of %.0f completed rounds", completed))
	cfg.report("locserver.early_completions", float64(s1.EarlyCompletions-s0.EarlyCompletions), "count", "")
	cfg.report("locserver.rows_rejected_ratio", ratio(float64(s1.RowsRejected-s0.RowsRejected), rowsSent), "ratio", fmt.Sprintf("of %.0f rows sent", rowsSent))
	cfg.report("locserver.quarantines", float64(s1.Quarantines-s0.Quarantines), "count", "")
	cfg.report("locserver.reelections", float64(s1.Reelections-s0.Reelections), "count", "")
	cfg.report("locserver.pruned", float64(s1.Pruned-s0.Pruned), "count", "")

	decodeUs, rows, err := rp.decode()
	if err != nil {
		return 0, 0, err
	}
	cfg.report("csi.validate_us_per_row", rp.validate(), "us", fmt.Sprintf("RowValidator.Check over %d of the workload's rows", rows))
	cfg.report("wire.decode_us_per_row", decodeUs, "us", "wire.Receive over the same rows' byte stream")
	cfg.report("wire.bytes_per_round", traced.sum.bytesPerRound, "bytes", "")

	gated, note := layerTime(spanLocateGated, func() []float64 { return rp.locate(rp.gated) })
	cfg.report("core.locate_gated_ms_p50", median(gated), "ms", note)
	cfg.report("core.locate_gated_ms_p99", quantile(gated, 0.99), "ms", "")
	full, note := layerTime(spanLocateFull, func() []float64 { return rp.locate(rp.full) })
	cfg.report("core.locate_full_ms_p50", median(full), "ms", note)
	cfg.report("core.locate_full_ms_p99", quantile(full, 0.99), "ms", "")
	rssi, note := layerTime(spanLocateRSSI, func() []float64 { return rp.locate(rp.rssi) })
	cfg.report("core.locate_rssi_ms_p50", median(rssi), "ms", note)
	cfg.report("core.locate_rssi_ms_p99", quantile(rssi, 0.99), "ms", "")
	e0, e1 := traced.eng[0], traced.eng[1]
	fallbacks := float64((e1.FallbackDisagree + e1.FallbackLowConf + e1.FallbackNoPeaks) -
		(e0.FallbackDisagree + e0.FallbackLowConf + e0.FallbackNoPeaks))
	gatedFixes := float64(e1.GatedFixes - e0.GatedFixes)
	cfg.report("core.gated_ratio", ratio(gatedFixes, float64(e1.Fixes-e0.Fixes)), "ratio", fmt.Sprintf("of %d engine fixes", e1.Fixes-e0.Fixes))
	cfg.report("core.gate_fallback_ratio", ratio(fallbacks, gatedFixes+fallbacks), "ratio", "of gated attempts")
	cfg.report("core.tile_ratio", ratio(float64(e1.TilesRefined-e0.TilesRefined), float64(e1.TilesTotal-e0.TilesTotal)), "ratio", "tiles refined per gated fix")
	hits, misses := float64(e1.PoolHits-e0.PoolHits), float64(e1.PoolMisses-e0.PoolMisses)
	cfg.report("core.pool_hit_ratio", ratio(hits, hits+misses), "ratio", "")

	trk := byLayer[spanTrack]
	cfg.report("track.update_us", 1e3*median(trk), "us", fmt.Sprintf("%d spans", len(trk)))
	fp, note := layerTime(spanFPLocate, rp.fingerprint)
	cfg.report("fingerprint.locate_us", 1e3*median(fp), "us", note)

	tiers := float64((s1.TierGatedRounds + s1.TierFullRounds + s1.TierFingerprintRounds + s1.TierCentroidRounds) -
		(s0.TierGatedRounds + s0.TierFullRounds + s0.TierFingerprintRounds + s0.TierCentroidRounds))
	cfg.report("ladder.tier_gated_ratio", ratio(float64(s1.TierGatedRounds-s0.TierGatedRounds), tiers), "ratio", fmt.Sprintf("of %.0f admitted rounds", tiers))
	cfg.report("ladder.tier_full_ratio", ratio(float64(s1.TierFullRounds-s0.TierFullRounds), tiers), "ratio", "")
	cfg.report("ladder.tier_fingerprint_ratio", ratio(float64(s1.TierFingerprintRounds-s0.TierFingerprintRounds), tiers), "ratio", "")
	cfg.report("ladder.tier_centroid_ratio", ratio(float64(s1.TierCentroidRounds-s0.TierCentroidRounds), tiers), "ratio", "")
	cfg.report("ladder.demotions", float64(s1.TierDemotions-s0.TierDemotions), "count", "")
	cfg.report("ladder.holdbacks", float64(s1.TierHoldbacks-s0.TierHoldbacks), "count", "")

	m0, m1 := untraced.mem[0], untraced.mem[1]
	fixes := 0.0
	for _, n := range untraced.sum.segFixes {
		fixes += float64(n)
	}
	cfg.report("runtime.alloc_bytes_per_fix", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), fixes), "bytes", "untraced in-process run; server and generator share the heap")
	cfg.report("runtime.gc_cycles_per_1k_fixes", ratio(1e3*float64(m1.NumGC-m0.NumGC), fixes), "count", "")

	bs := bin.sum
	cfg.report("gen.late_p99_ms", quantile(append([]float64(nil), bs.late...), 0.99), "ms", "binary run")
	genCPU := (bin.cpuGen[len(bin.cpuGen)-1] - bin.cpuGen[0]).Seconds() * 1e3
	cfg.report("gen.cpu_ms_per_round", ratio(genCPU, float64(bs.open)), "ms", "binary run, whole benchmark process")

	pu := untraced.sum.latency(0.5)
	pt := traced.sum.latency(0.5)
	pb := bs.latency(0.5)
	cfg.report("inproc.fix_p50_ms_untraced", pu, "ms", "")
	cfg.report("inproc.fix_p50_ms_traced", pt, "ms", "")
	cfg.report("inproc.trace_overhead_ms", pt-pu, "ms", "traced − untraced")
	cfg.report("binary.fix_p50_ms", pb, "ms", "")
	cfg.report("binary.fix_p99_ms", bs.windowLatency(0.99), "ms", "whole window")
	cfg.report("inproc.binary_gap_ms", pb-pu, "ms", "binary − untraced in-process")

	if f3, g3, err := bench3(cfg.root); err == nil {
		fmt.Printf("reconcile with BENCH_3.json (engine only, in-memory snapshots): core.locate_full_ms_p50=%.3f vs after.ns_per_fix=%.3f ms; core.locate_gated_ms_p50=%.3f vs tracked[0].ns_per_fix=%.3f ms\n",
			median(full), f3, median(gated), g3)
	} else {
		fmt.Printf("reconcile with BENCH_3.json: unavailable (%v)\n", err)
	}

	attempted := untraced.sum.attempted + traced.sum.attempted + bs.attempted
	failed := untraced.sum.failed + traced.sum.failed + bs.failed
	return attempted, failed, nil
}

// replayer times single layers over the workload's own measured rounds.
type replayer struct {
	cfg   *config
	eng   *core.Engine
	rows  []*wire.CSIRow // measured rounds' rows in send order, faults included
	snaps []*csi.Snapshot
	slots []*slot
	fpdb  *fingerprint.DB
}

func newReplayer(cfg *config, ps *pass) (*replayer, error) {
	dep := cfg.corpus.dep
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return nil, err
	}
	fpdb, err := fingerprint.ReadFile(cfg.fpPath)
	if err != nil {
		return nil, err
	}
	rp := &replayer{cfg: cfg, eng: eng, fpdb: fpdb}
	for i := 0; i < int(ps.d.issued.Load()); i++ {
		if s := &ps.d.slots[i]; s.phase == phaseOpen {
			rp.slots = append(rp.slots, s)
		}
	}
	return rp, nil
}

// stream re-encodes the measured rounds exactly as they were sent.
func (rp *replayer) stream() []byte {
	var buf bytes.Buffer
	c := rp.cfg.corpus
	for k, s := range rp.slots[:min(len(rp.slots), streamRounds)] {
		r := &c.rounds[s.idx]
		for a := 0; a < numAnchors; a++ {
			b := r.batch[a]
			switch {
			case s.omitted && a == silentAnchor:
				continue
			case s.garbage && a == garbageAnchor:
				b = r.garbage
			}
			c.patch(b, uint32(k+1), s.tag)
			buf.Write(b)
		}
	}
	return buf.Bytes()
}

// decode times wire.Receive over the measured rounds' byte stream.
func (rp *replayer) decode() (usPerRow float64, rows int, err error) {
	r := bytes.NewReader(rp.stream())
	start := time.Now()
	for {
		msg, err := wire.Receive(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		rp.rows = append(rp.rows, msg.(*wire.CSIRow))
	}
	el := time.Since(start)
	return ratio(float64(el.Nanoseconds())/1e3, float64(len(rp.rows))), len(rp.rows), nil
}

// validate times csi.RowValidator.Check over the rows decode collected,
// in arrival order, as the server's ingest path runs it.
func (rp *replayer) validate() (usPerRow float64) {
	v := csi.NewRowValidator(numAnchors, csi.QualityConfig{})
	start := time.Now()
	for _, row := range rp.rows {
		v.Check(int(row.AnchorID), row.Tag, row.Master)
	}
	el := time.Since(start)
	return ratio(float64(el.Nanoseconds())/1e3, float64(len(rp.rows)))
}

// snapshots returns the first replayRounds measured rounds as clean
// snapshots.
func (rp *replayer) snapshots() ([]*csi.Snapshot, []*slot) {
	if rp.snaps != nil {
		return rp.snaps, rp.slots[:len(rp.snaps)]
	}
	c := rp.cfg.corpus
	for _, s := range rp.slots {
		if len(rp.snaps) == replayRounds {
			break
		}
		snap := csi.NewSnapshot(c.dep.Bands, numAnchors, c.dep.Anchors[0].N)
		r := bytes.NewReader(nil)
		for a := 0; a < numAnchors; a++ {
			r.Reset(c.rounds[s.idx].batch[a])
			for {
				msg, err := wire.Receive(r)
				if err != nil {
					break
				}
				row := msg.(*wire.CSIRow)
				copy(snap.Tag[row.BandIdx][a], row.Tag)
				if a != 0 {
					snap.Master[row.BandIdx][a] = row.Master
				}
			}
		}
		rp.snaps = append(rp.snaps, snap)
	}
	return rp.snaps, rp.slots[:len(rp.snaps)]
}

func (rp *replayer) locate(f func(*csi.Snapshot, *slot)) []float64 {
	snaps, slots := rp.snapshots()
	out := make([]float64, len(snaps))
	for i, snap := range snaps {
		start := time.Now()
		f(snap, slots[i])
		out[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return out
}

func (rp *replayer) full(snap *csi.Snapshot, _ *slot) {
	rp.eng.LocateOpts(snap, core.LocateOptions{})
}

// gated runs the prior-gated search with the prior a settled track would
// give: a 0.1 m 1σ ellipse at the true position, scaled by a fresh
// GatePolicy.
func (rp *replayer) gated(snap *csi.Snapshot, s *slot) {
	p := core.NewGatePolicy().Prior(rp.cfg.corpus.rounds[s.idx].truth, 0.1, 0.1, 0)
	rp.eng.LocateOpts(snap, core.LocateOptions{Prior: &p})
}

func (rp *replayer) rssi(snap *csi.Snapshot, _ *slot) {
	rp.eng.LocateRSSI(snap)
}

func (rp *replayer) fingerprint() []float64 {
	snaps, _ := rp.snapshots()
	out := make([]float64, len(snaps))
	for i, snap := range snaps {
		sig := fingerprint.Signature(snap)
		start := time.Now()
		rp.fpdb.Locate(sig)
		out[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return out
}
