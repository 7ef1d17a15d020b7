// Command bloc-map renders BLoc's likelihood surface for one acquisition
// as an ASCII heatmap in the terminal — the Fig. 6c / Fig. 8c view, plus
// the scored candidate peaks. A debugging lens into the pipeline: the
// multipath blobs, the chosen peak and the ground truth are all visible
// at a glance.
//
// Usage:
//
//	bloc-map [-tag "0.6,-0.9"] [-seed 7] [-view combined|angle|distance]
//	         [-anchor 1] [-width 72]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"bloc/internal/core"
	"bloc/internal/dsp"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// ramp maps normalized likelihood to glyphs, light to dark.
const ramp = " .:-=+*#%@"

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

// run parses args and renders the requested view to stdout; flag errors
// and the flag summary go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bloc-map", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tagPos = fs.String("tag", "0.6,-0.9", "true tag position x,y")
		seed   = fs.Uint64("seed", 7, "simulation seed")
		view   = fs.String("view", "combined", "combined, angle or distance")
		anchor = fs.Int("anchor", 1, "anchor for angle/distance views")
		width  = fs.Int("width", 72, "map width in characters")
	)
	usage := func(format string, a ...any) error {
		fmt.Fprintf(stderr, format+"\n", a...)
		fs.Usage()
		return errUsage
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *view != "combined" && *view != "angle" && *view != "distance" {
		return usage("invalid value %q for flag -view: want combined, angle or distance", *view)
	}
	tag, err := parsePoint(*tagPos)
	if err != nil {
		return usage("invalid value %q for flag -tag: %v", *tagPos, err)
	}
	dep, err := testbed.Paper(*seed)
	if err != nil {
		return err
	}
	if *view != "combined" && (*anchor < 0 || *anchor >= len(dep.Anchors)) {
		return usage("invalid value %d for flag -anchor: the deployment has anchors 0..%d", *anchor, len(dep.Anchors)-1)
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return err
	}
	snap := dep.Sounding(tag)
	a, err := core.Correct(snap)
	if err != nil {
		return err
	}

	var grid *dsp.Grid
	estimate := geom.Point{}
	switch *view {
	case "combined":
		res, err := eng.LocateOpts(snap, core.LocateOptions{})
		if err != nil {
			return err
		}
		if grid, _, err = eng.Likelihood(a); err != nil {
			return err
		}
		estimate = res.Estimate
		defer func() {
			fmt.Fprintln(stdout, "\ncandidates (Eq. 18):")
			for i, c := range res.Candidates {
				marker := " "
				if c.Loc == res.Estimate {
					marker = "*"
				}
				fmt.Fprintf(stdout, " %s #%d %v  p=%.2f H=%.2f Σd=%.1f score=%.4f\n",
					marker, i, c.Loc, c.PeakValue, c.Entropy, c.SumDist, c.Score)
			}
		}()
	case "angle":
		grid = eng.AngleLikelihoodXY(a, *anchor)
	case "distance":
		grid = eng.DistanceLikelihoodXY(a, *anchor)
	}

	render(stdout, eng, dep, grid, tag, estimate, *width)
	if estimate != (geom.Point{}) {
		fmt.Fprintf(stdout, "\ntruth %v   estimate %v   error %.2f m\n", tag, estimate, estimate.Dist(tag))
	}
	return nil
}

// render downsamples the likelihood grid to the terminal and overlays the
// anchors (A), the truth (T) and the estimate (E).
func render(w io.Writer, eng *core.Engine, dep *testbed.Deployment, grid *dsp.Grid, truth, estimate geom.Point, width int) {
	if width < 20 {
		width = 20
	}
	nx, ny := eng.GridSize()
	// Terminal cells are ~2x taller than wide; compensate.
	height := ny * width / nx / 2
	if height < 10 {
		height = 10
	}
	gmax, _, _ := grid.Max()
	if gmax <= 0 {
		gmax = 1
	}
	rows := make([][]byte, height)
	for r := range rows {
		rows[r] = make([]byte, width)
		for c := range rows[r] {
			// Sample the underlying grid (y axis flipped: north up).
			gx := float64(c) / float64(width-1) * float64(nx-1)
			gy := float64(height-1-r) / float64(height-1) * float64(ny-1)
			v := grid.Bilinear(gx, gy) / gmax
			idx := int(v * float64(len(ramp)-1))
			rows[r][c] = ramp[idx]
		}
	}
	overlay := func(p geom.Point, glyph byte) {
		fx, fy := cellOf(eng, p)
		c := int(fx / float64(nx-1) * float64(width-1))
		r := height - 1 - int(fy/float64(ny-1)*float64(height-1))
		if r >= 0 && r < height && c >= 0 && c < width {
			rows[r][c] = glyph
		}
	}
	for _, a := range dep.Anchors {
		overlay(a.Center(), 'A')
	}
	overlay(truth, 'T')
	if estimate != (geom.Point{}) {
		overlay(estimate, 'E')
	}
	border := "+" + strings.Repeat("-", width) + "+"
	fmt.Fprintln(w, border)
	for _, row := range rows {
		fmt.Fprintf(w, "|%s|\n", row)
	}
	fmt.Fprintln(w, border)
	fmt.Fprintln(w, "A = anchor   T = truth   E = estimate   dark = high likelihood")
}

// cellOf mirrors the engine's coordinate mapping for overlay markers.
func cellOf(eng *core.Engine, p geom.Point) (float64, float64) {
	cfg := eng.Config()
	return (p.X - cfg.Room.Min.X) / cfg.CellM, (p.Y - cfg.Room.Min.Y) / cfg.CellM
}

func parsePoint(s string) (geom.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return geom.Point{}, fmt.Errorf("bad point %q, want x,y", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return geom.Point{}, err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Pt(x, y), nil
}
