// Command bloc-bench regenerates every table and figure of the paper's
// evaluation (§8) on the simulated testbed and prints the comparison
// tables. With -out it also writes the raw series (CDF points, heatmap
// cells, phase profiles) as CSV files for plotting.
//
// Usage:
//
//	bloc-bench [-positions 300] [-seed 7] [-exp all|fig4|fig6|fig8a|fig8b|
//	            fig9a|fig9b|fig9c|fig10|fig11|fig12|fig13|ablations|quorum|
//	            failover|restart|overload|cellkill|gated|degrade|perf] [-out dir]
//
// The paper used 1700 positions; -positions 1700 reproduces that scale
// (several minutes of CPU), while the default 300 keeps the shape of every
// result at a fraction of the cost.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bloc/internal/dsp"
	"bloc/internal/eval"
	"bloc/internal/geom"
)

func main() {
	var (
		positions = flag.Int("positions", 300, "dataset size (paper: 1700)")
		seed      = flag.Uint64("seed", 7, "simulation seed")
		exp       = flag.String("exp", "all", "experiment to run (fig4..fig13, ablations, quorum, failover, restart, overload, cellkill, gated, degrade, perf, or all)")
		out       = flag.String("out", "", "directory for CSV series (optional)")

		// -exp perf flags.
		perfFixes  = flag.Int("perf-fixes", 50, "fixes per perf measurement point and pass")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the perf run")
		memprofile = flag.String("memprofile", "", "write a heap profile after the perf run")
		benchOut   = flag.String("bench-out", "", "write the perf report as JSON (e.g. BENCH_3.json)")
		perfCheck  = flag.String("check", "", "compare against a committed perf report; exit 1 on a >2x latency regression")
		baseNs     = flag.Float64("baseline-ns", 19267582, "baseline ns/fix (frozen pre-optimization measurement)")
		baseBytes  = flag.Float64("baseline-bytes", 3169160, "baseline B/fix (frozen pre-optimization measurement)")
		baseAllocs = flag.Float64("baseline-allocs", 401, "baseline allocs/fix (frozen pre-optimization measurement)")
	)
	flag.Parse()

	if *exp == "perf" {
		runPerf(*seed, *perfFixes,
			perfNumbers{NsPerFix: *baseNs, BytesPerFix: *baseBytes, AllocsPerFix: *baseAllocs},
			*cpuprofile, *memprofile, *benchOut, *perfCheck)
		return
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	// Fig. 4 and Fig. 8b need no dataset.
	if want("fig4") {
		runFig4(*out)
	}
	if want("fig8b") {
		runFig8b(*seed, *out)
	}
	// The restart ablation builds its own miscalibrated deployment, so it
	// needs no shared dataset either; "all" covers it inside runAblations.
	if want("restart") && *exp != "all" {
		rs, err := eval.AblationRestart(*seed, *positions, restartPhaseErrDeg)
		check(err)
		fmt.Println(eval.RestartTable(rs))
	}
	// The overload drill runs a live server + anchor fleet; no dataset.
	if want("overload") && *exp != "all" { // "all" covers it inside runAblations
		ov, err := eval.AblationOverload(*seed)
		check(err)
		fmt.Println(eval.OverloadTable(ov))
	}
	// The cell-kill drill runs two live in-process fleets; no dataset.
	if want("cellkill") && *exp != "all" { // "all" covers it inside runAblations
		ck, err := eval.AblationCellKill(*seed)
		check(err)
		fmt.Println(eval.CellKillTable(ck))
	}
	// The gated ablation walks its own tag trajectories; no dataset.
	if want("gated") && *exp != "all" { // "all" covers it inside runAblations
		gs, err := eval.AblationGated(*seed, gatedSteps)
		check(err)
		fmt.Println(eval.GatedTable(gs))
	}
	// The degrade ablation builds its own survey + spots; no dataset.
	if want("degrade") && *exp != "all" { // "all" covers it inside runAblations
		dg, err := eval.AblationDegrade(*seed)
		check(err)
		fmt.Println(eval.DegradeTable(dg))
		checkDegradeOrdering(dg)
	}
	needsDataset := want("fig6") || want("fig8a") || want("fig9a") || want("fig9b") ||
		want("fig9c") || want("fig10") || want("fig11") || want("fig12") ||
		want("fig13") || want("ablations") || want("quorum") || want("failover")
	if !needsDataset {
		return
	}

	fmt.Printf("acquiring dataset: %d positions (seed %d)...\n", *positions, *seed)
	start := time.Now()
	suite, err := eval.NewSuite(eval.SuiteOptions{
		Seed:      *seed,
		Positions: *positions,
		Progress: func(done, total int) {
			if done%100 == 0 || done == total {
				fmt.Printf("  %d/%d\r", done, total)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	if want("fig6") {
		runFig6(suite, *out)
	}
	if want("fig8a") {
		runFig8a(suite)
	}
	if want("fig9a") {
		r, err := suite.Fig9a()
		check(err)
		fmt.Println(r.Table())
		writeCDF(*out, "fig9a_bloc_cdf.csv", r.BLocCDF)
		writeCDF(*out, "fig9a_aoa_cdf.csv", r.AoACDF)
	}
	if want("fig9b") {
		r, err := suite.Fig9b()
		check(err)
		fmt.Println(r.Table())
	}
	if want("fig9c") {
		r, err := suite.Fig9c()
		check(err)
		fmt.Println(r.Table())
	}
	if want("fig10") {
		r, err := suite.Fig10()
		check(err)
		fmt.Println(r.Table())
	}
	if want("fig11") {
		r, err := suite.Fig11()
		check(err)
		fmt.Println(r.Table())
	}
	if want("fig12") {
		r, err := suite.Fig12()
		check(err)
		fmt.Println(r.Table())
		writeCDF(*out, "fig12_bloc_cdf.csv", r.BLocCDF)
		writeCDF(*out, "fig12_shortest_cdf.csv", r.ShortestCDF)
	}
	if want("fig13") {
		runFig13(suite, *out)
	}
	if want("quorum") && *exp != "all" { // "all" covers it inside runAblations
		qs, err := suite.AblationQuorum()
		check(err)
		fmt.Println(eval.QuorumTable(qs))
	}
	if want("failover") && *exp != "all" { // "all" covers it inside runAblations
		fs, err := suite.AblationFailover()
		check(err)
		fmt.Println(eval.FailoverTable(fs))
	}
	if want("ablations") {
		runAblations(suite, *seed, *positions)
	}
}

// restartPhaseErrDeg is the per-antenna static phase miscalibration the
// restart ablation assumes: large enough that localizing uncalibrated
// visibly hurts, small enough that calibration estimation stays stable.
const restartPhaseErrDeg = 35

// gatedSteps is the walk length per mobility scenario of the gated
// ablation: long enough for the hysteresis to settle and recover a few
// times, short enough that four scenarios stay in the seconds range.
const gatedSteps = 60

// runAblations prints the extension experiments of DESIGN.md §6. The
// SNR/NLOS sweeps re-acquire smaller datasets (a quarter of the main one)
// since each point needs its own noise realization or environment.
func runAblations(suite *eval.Suite, seed uint64, positions int) {
	small := positions / 4
	if small < 20 {
		small = 20
	}
	vs, err := suite.AblationScore()
	check(err)
	fmt.Println(eval.ScoreTable(vs))

	panel, err := suite.AblationBaselines()
	check(err)
	fmt.Println(eval.BaselinesTable(panel))

	ws, err := suite.AblationWeights([]float64{0.05, 0.1, 0.2}, []float64{0, 0.05, 0.5})
	check(err)
	fmt.Println(eval.WeightsTable(ws))

	qs, err := suite.AblationQuorum()
	check(err)
	fmt.Println(eval.QuorumTable(qs))

	fo, err := suite.AblationFailover()
	check(err)
	fmt.Println(eval.FailoverTable(fo))

	rs, err := eval.AblationRestart(seed, small, restartPhaseErrDeg)
	check(err)
	fmt.Println(eval.RestartTable(rs))

	ov, err := eval.AblationOverload(seed)
	check(err)
	fmt.Println(eval.OverloadTable(ov))

	ck, err := eval.AblationCellKill(seed)
	check(err)
	fmt.Println(eval.CellKillTable(ck))

	gs, err := eval.AblationGated(seed, gatedSteps)
	check(err)
	fmt.Println(eval.GatedTable(gs))

	dg, err := eval.AblationDegrade(seed)
	check(err)
	fmt.Println(eval.DegradeTable(dg))
	checkDegradeOrdering(dg)

	snrs, err := eval.AblationSNR(seed, small, []float64{5, 10, 15, 25})
	check(err)
	fmt.Println(eval.SNRTable(snrs))

	permuted, repeated, err := eval.AblationHopInvariance(seed, geom.Pt(0.6, -0.4), []int{5, 7, 11, 16})
	check(err)
	fmt.Println("Ablation — hop-increment invariance (§2.1 primality argument)")
	fmt.Printf("  estimate spread across f_hop ∈ {5,7,11,16}: %.2f m\n", eval.Spread(permuted))
	fmt.Printf("  spread of repeated measurements (baseline): %.2f m\n\n", eval.Spread(repeated))

	nlos, err := eval.AblationNLOS(seed, small, []float64{1.0, 0.5, 0.25, 0.1})
	check(err)
	fmt.Println(eval.NLOSTable(nlos))

	interf, err := eval.AblationInterference(seed, small, 6, 0.15)
	check(err)
	fmt.Println(eval.InterferenceTable(interf))

	motion, err := eval.AblationMotion(seed, small, []float64{0, 0.5, 1, 2, 3})
	check(err)
	fmt.Println(eval.MotionTable(motion))

	cte, err := eval.AblationCTE(seed, small)
	check(err)
	fmt.Println(eval.CTETable(cte))

	wf, err := eval.AblationWiFi(seed, small)
	check(err)
	fmt.Println(eval.WiFiTable(wf))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// checkDegradeOrdering enforces the ladder's accuracy contract: the
// fingerprint rung must strictly beat the centroid floor it sits above,
// or the rung has no reason to exist.
func checkDegradeOrdering(dg *eval.DegradeResult) {
	fp := dg.Rung(eval.RungFingerprint).Median
	ct := dg.Rung(eval.RungCentroid).Median
	if !(fp < ct) {
		log.Fatalf("degrade: fingerprint median %.0f cm does not beat centroid %.0f cm", fp*100, ct*100)
	}
}

func runFig4(out string) {
	r := eval.Fig4(8)
	fmt.Println("Fig 4 — GFSK pulse shaping (paper: random bits never settle; runs settle at ±1)")
	settled := func(w []float64) float64 {
		n := 0
		for _, v := range w {
			if math.Abs(v) > 0.99 {
				n++
			}
		}
		return float64(n) / float64(len(w))
	}
	fmt.Printf("  random bits:   settled %.0f%% of samples\n", settled(r.RandomShaped)*100)
	fmt.Printf("  sounding bits: settled %.0f%% of samples\n\n", settled(r.SoundingShaped)*100)
	if out != "" {
		var b strings.Builder
		b.WriteString("sample,random,sounding\n")
		for i := range r.RandomShaped {
			fmt.Fprintf(&b, "%d,%.6f,%.6f\n", i, r.RandomShaped[i], r.SoundingShaped[i])
		}
		writeFile(out, "fig4_waveforms.csv", b.String())
	}
}

func runFig8b(seed uint64, out string) {
	r, err := eval.Fig8b(seed, geom.Pt(0.8, 0.4))
	check(err)
	fmt.Println("Fig 8b — Phase across subbands (paper: random without correction, linear with BLoc)")
	fmt.Printf("  raw phase linearity       R² = %.3f\n", r.RawR2)
	fmt.Printf("  corrected phase linearity R² = %.3f\n\n", r.CorrR2)
	if out != "" {
		var b strings.Builder
		b.WriteString("freq_hz,raw_deg,corrected_deg\n")
		for k := range r.Freqs {
			fmt.Fprintf(&b, "%.0f,%.2f,%.2f\n", r.Freqs[k], r.RawDeg[k], r.CorrectedDeg[k])
		}
		writeFile(out, "fig8b_phase.csv", b.String())
	}
}

func runFig8a(s *eval.Suite) {
	r, err := s.Fig8a(geom.Pt(0.5, 0.5), 10)
	check(err)
	fmt.Println("Fig 8a — CSI stability over 10 consecutive measurements (paper: constant phase)")
	fmt.Printf("  bands %v, worst per-band phase spread %.1f°\n\n", r.BandIndices, r.MaxSpreadDeg)
}

func runFig6(s *eval.Suite, out string) {
	tag := geom.Pt(0.6, -0.9)
	r, err := s.Fig6(tag)
	check(err)
	fmt.Println("Fig 6 / Fig 8c — Likelihood maps (angle fan, distance hyperbola, combined)")
	fmt.Printf("  tag %v -> estimate %v (error %.2f m)\n\n", r.Tag, r.Estimate, r.Estimate.Dist(r.Tag))
	if out != "" {
		writeGrid(out, "fig6_angle.csv", r.Angle.Data, r.Angle.W)
		writeGrid(out, "fig6_distance.csv", r.Distance.Data, r.Distance.W)
		writeGrid(out, "fig6_combined.csv", r.Combined.Data, r.Combined.W)
		writePNG(out, "fig6_angle.png", r.Angle, 4)
		writePNG(out, "fig6_distance.png", r.Distance, 4)
		writePNG(out, "fig6_combined.png", r.Combined, 4)
	}
}

func runFig13(s *eval.Suite, out string) {
	r, err := s.Fig13(0.5)
	check(err)
	corner, center := r.CornerVsCenter()
	fmt.Println("Fig 13 — RMSE vs location (paper: corners worst, no other pattern)")
	fmt.Printf("  corner cells RMSE %.2f m, central cells RMSE %.2f m\n\n", corner, center)
	if out != "" {
		writeGrid(out, "fig13_rmse.csv", r.Grid.Data, r.Grid.W)
		writePNG(out, "fig13_rmse.png", r.Grid, 24)
	}
}

func writeCDF(dir, name string, cdf []dsp.CDFPoint) {
	if dir == "" {
		return
	}
	var b strings.Builder
	b.WriteString("error_m,fraction\n")
	for _, p := range cdf {
		fmt.Fprintf(&b, "%.4f,%.6f\n", p.Value, p.Fraction)
	}
	writeFile(dir, name, b.String())
}

func writeGrid(dir, name string, data []float64, w int) {
	var b strings.Builder
	for i, v := range data {
		if i > 0 && i%w == 0 {
			b.WriteByte('\n')
		} else if i%w != 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.5g", v)
	}
	b.WriteByte('\n')
	writeFile(dir, name, b.String())
}

func writePNG(dir, name string, g *dsp.Grid, scale int) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := eval.RenderGridPNG(f, g, scale); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  wrote %s\n", path)
}

func writeFile(dir, name, content string) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  wrote %s\n", path)
}
