// Command bloc-dataset records measurement campaigns to disk and replays
// them through any estimator — the collect-once / evaluate-many workflow
// of the paper's evaluation (one 1700-position dataset feeds every figure
// of §8).
//
// Usage:
//
//	bloc-dataset record -out campaign.bloc [-positions 300] [-seed 7]
//	bloc-dataset replay -in campaign.bloc [-method bloc] [-seed 7]
//	bloc-dataset info   -in campaign.bloc
//	bloc-dataset survey -out site.fpdb [-step 0.5] [-samples 3] [-seed 7]
//
// The seed at replay must match the recording's: it reconstructs the
// anchor geometry the snapshots were measured against.
//
// survey walks a reference grid over the simulated room and records each
// point's median per-anchor RSSI signature — the offline site-survey
// campaign behind the serving plane's fingerprint rung (DESIGN.md §16).
// The resulting file feeds bloc-server -fingerprint; the survey seed
// must match the server's deployment seed for the signatures to match
// the live field.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/eval"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "survey":
		survey(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bloc-dataset record|replay|info|survey [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "campaign.bloc", "output file")
	positions := fs.Int("positions", 300, "number of tag positions")
	seed := fs.Uint64("seed", 7, "simulation seed")
	fs.Parse(args)

	dep, err := testbed.Paper(*seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recording %d positions (seed %d)...\n", *positions, *seed)
	ds, err := eval.Acquire(dep, eval.AcquireOptions{Positions: *positions, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := eval.SaveDataset(f, ds); err != nil {
		log.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d positions, %.1f MiB\n", *out, ds.Len(), float64(st.Size())/(1<<20))
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "campaign.bloc", "input file")
	method := fs.String("method", "bloc", "estimator: bloc, aoa, shortest-distance, rssi, music")
	seed := fs.Uint64("seed", 7, "deployment seed the campaign was recorded with")
	fs.Parse(args)

	ds := load(*in)
	dep, err := testbed.Paper(*seed)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		log.Fatal(err)
	}
	est := map[string]func(*csi.Snapshot) (*core.Result, error){
		"bloc": func(s *csi.Snapshot) (*core.Result, error) {
			return eng.LocateOpts(s, core.LocateOptions{})
		},
		"aoa":               eng.LocateAoA,
		"shortest-distance": eng.LocateShortestDistance,
		"rssi":              eng.LocateRSSI,
		"music":             eng.LocateMUSIC,
	}[*method]
	if est == nil {
		log.Fatalf("unknown method %q", *method)
	}
	errs := make([]float64, 0, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		res, err := est(ds.Snapshots[i])
		if err != nil {
			log.Fatalf("position %d: %v", i, err)
		}
		errs = append(errs, res.Estimate.Dist(ds.Truth[i]))
	}
	st := eval.NewErrorStats(errs)
	fmt.Printf("replayed %d positions with %s: %s\n", ds.Len(), *method, st)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "campaign.bloc", "input file")
	fs.Parse(args)
	ds := load(*in)
	s := ds.Snapshots[0]
	fmt.Printf("%s: %d positions, %d bands × %d anchors × %d antennas per snapshot\n",
		*in, ds.Len(), s.NumBands(), s.NumAnchors(), s.NumAntennas())
}

func survey(args []string) {
	fs := flag.NewFlagSet("survey", flag.ExitOnError)
	out := fs.String("out", "site.fpdb", "output survey file")
	step := fs.Float64("step", 0.5, "reference grid pitch in meters")
	samples := fs.Int("samples", 3, "independent soundings medianed per reference point")
	seed := fs.Uint64("seed", 7, "simulation seed (must match the serving deployment)")
	fs.Parse(args)

	dep, err := testbed.Paper(*seed)
	if err != nil {
		log.Fatal(err)
	}
	anchors := len(dep.Anchors)
	fmt.Printf("surveying %v at %.2g m pitch, %d samples/point (seed %d)...\n",
		dep.Env.Room, *step, *samples, *seed)
	// Fork-salt convention shared with eval.AblationDegrade: one
	// deterministic channel realization per (point, repetition).
	db, err := fingerprint.Survey(dep.Env.Room, anchors,
		func(point, rep int, p geom.Point) *csi.Snapshot {
			return dep.Fork(0x5E0<<16 | uint64(point)<<4 | uint64(rep)).Sounding(p)
		}, fingerprint.SurveyOptions{StepM: *step, Samples: *samples})
	if err != nil {
		log.Fatal(err)
	}
	if err := fingerprint.WriteFile(*out, db); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d reference points × %d anchors, %.1f KiB\n",
		*out, len(db.Points), db.Anchors, float64(st.Size())/(1<<10))
}

func load(path string) *eval.Dataset {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ds, err := eval.LoadDataset(f)
	if err != nil {
		log.Fatal(err)
	}
	return ds
}
