// Command bloc-sim runs one-shot localization experiments on the simulated
// paper testbed: it samples tag positions, localizes each with the chosen
// estimator and prints per-position errors plus summary statistics.
//
// Usage:
//
//	bloc-sim [-positions 50] [-method bloc|aoa|aoa-soft|shortest-distance|rssi]
//	         [-anchors 4] [-antennas 4] [-seed 1] [-v]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"bloc"
	"bloc/internal/dsp"
	"bloc/internal/eval"
	"bloc/internal/geom"
)

// errUsage marks a bad command line. run has already printed the reason
// and the flag summary to stderr; main exits with status 2.
var errUsage = errors.New("usage error")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}

// run parses args, localizes the sampled positions and prints the
// errors to stdout; flag errors and the flag summary go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bloc-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		positions = fs.Int("positions", 50, "number of tag positions to localize")
		method    = fs.String("method", "bloc", "estimator: bloc, aoa, aoa-soft, shortest-distance, rssi, music")
		anchors   = fs.Int("anchors", 4, "number of anchors")
		antennas  = fs.Int("antennas", 4, "antennas per anchor")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		plan      = fs.String("floorplan", "", "JSON floorplan file (overrides the paper room)")
		verbose   = fs.Bool("v", false, "print per-position errors")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *positions < 1 {
		fmt.Fprintf(stderr, "invalid value %d for flag -positions: want at least 1\n", *positions)
		fs.Usage()
		return errUsage
	}

	m, err := parseMethod(*method)
	if err != nil {
		return err
	}
	opts := bloc.Options{
		Anchors:   *anchors,
		Antennas:  *antennas,
		PaperRoom: true,
		Seed:      *seed,
	}
	if *plan != "" {
		fp, err := bloc.LoadFloorplan(*plan)
		if err != nil {
			return err
		}
		opts = fp.Options(*seed)
		if *anchors != 4 {
			opts.Anchors = *anchors
		}
		if *antennas != 4 {
			opts.Antennas = *antennas
		}
		fmt.Fprintf(stdout, "floorplan: %s\n", fp.Name)
	}
	sys, err := bloc.NewSystem(opts)
	if err != nil {
		return err
	}

	min, max := sys.Room()
	fmt.Fprintf(stdout, "BLoc simulation: %d positions, %d anchors, room %.1fx%.1f m, method %s\n",
		*positions, len(sys.AnchorPositions()), max.X-min.X, max.Y-min.Y, m)

	pts := eval.SamplePositions(geom.NewRect(min, max), *positions, 0.04, 0.25, *seed)
	errs := make([]float64, 0, len(pts))
	for i, p := range pts {
		fix, err := sys.LocalizeWith(m, p)
		if err != nil {
			return fmt.Errorf("position %d: %w", i, err)
		}
		errs = append(errs, fix.Error)
		if *verbose {
			fmt.Fprintf(stdout, "  #%03d truth %v -> estimate %v  error %.2f m\n",
				i, p, fix.Estimate, fix.Error)
		}
	}
	st := eval.NewErrorStats(errs)
	fmt.Fprintf(stdout, "\nmedian %.0f cm   p90 %.0f cm   mean %.0f cm   max %.0f cm\n",
		st.Median*100, st.P90*100, st.Mean*100, st.Max*100)
	fmt.Fprintln(stdout, "\nerror CDF:")
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		fmt.Fprintf(stdout, "  %3.0f%% of fixes within %.2f m\n", frac*100, dsp.Percentile(errs, frac*100))
	}
	return nil
}

func parseMethod(s string) (bloc.Method, error) {
	switch s {
	case "bloc":
		return bloc.MethodBLoc, nil
	case "aoa":
		return bloc.MethodAoA, nil
	case "aoa-soft":
		return bloc.MethodAoASoft, nil
	case "shortest-distance":
		return bloc.MethodShortestDistance, nil
	case "rssi":
		return bloc.MethodRSSI, nil
	case "music":
		return bloc.MethodMUSIC, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}
